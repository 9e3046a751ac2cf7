open Avp_fsm
module Obs = Avp_obs.Obs
module Replay = Avp_vectors.Replay
module Tour_gen = Avp_tour.Tour_gen

(* Candidate evaluation: plan (model walk), realize (condition map),
   then execute the vectors and check the design against the plan.

   Planning walks the enumerated graph from reset
   ({!Avp_tour.Tour_gen.walk}: the enumeration's successor rows, or
   the model's [next] where a state has none).  The plan
   is a candidate's only record: the fuzzing loop commits its walk to
   coverage, and execution checks that the design takes exactly that
   walk — every annotated state net against the planned state's
   valuation, at reset release and after every clock edge, the step-4
   replay check.  On the pristine design the two provably agree (the
   replay theorems); a disagreement is a translation or replay bug,
   which the loop reports.

   Execution runs on the bit-sliced kernel's replay checker
   ({!Avp_vectors.Replay.check_lanes}), one candidate per one-lane
   slot, the lane scheduler the mutation campaign's detect passes and
   the output recording use; the scalar replay checker, on the
   reference interpreter, stays the fallback and the oracle. *)

type planned = {
  choices : Corpus.entry;
  trace : Tour_gen.trace;
}

let plan (graph : Avp_enum.State_graph.t) (entry : Corpus.entry) =
  { choices = entry; trace = Tour_gen.walk graph entry }

let mismatch_detail m = Format.asprintf "%a" Replay.pp_mismatch m

(* The scalar engine is the replay checker itself, over the round's
   plans as one tour set: it reports the lowest-numbered diverging
   trace.  A state net at x/z escapes the checker as
   [Translate.Unsupported], without a trace index, so that failure is
   located by re-checking the candidates one at a time. *)
let check_scalar ?progress (tr : Translate.result) graph
    (tours : Tour_gen.t) (vectors : Avp_vectors.Vector.t array) =
  match Replay.check ?progress ~vectors tr graph tours with
  | Ok _ -> Ok ()
  | Error m -> Error (m.Replay.trace, mismatch_detail m)
  | exception Translate.Unsupported _ ->
    let rec locate i =
      let one = Tour_gen.of_traces [| tours.Tour_gen.traces.(i) |] in
      match Replay.check ~vectors:[| vectors.(i) |] tr graph one with
      | Ok _ -> locate (i + 1)
      | Error m -> Error (i, mismatch_detail { m with Replay.trace = i })
      | exception Translate.Unsupported msg -> Error (i, msg)
    in
    locate 0

let exec_span i cycles t0 =
  if Obs.enabled () then
    Obs.complete ~cat:"fuzz" "fuzz.exec"
      ~dur_s:(Obs.Clock.now_s () -. t0)
      ~args:
        [
          ("candidate", Obs.Int i);
          ("cycles", Obs.Int cycles);
          ("flow_in", Obs.Int 0);
        ]

let run ?(engine : [ `Scalar | `Sliced ] = `Sliced) ?progress
    (tr : Translate.result) ~map (graph : Avp_enum.State_graph.t)
    (planned : planned array) =
  let vectors =
    Array.map
      (fun p -> Avp_vectors.Condition_map.vectors_of_trace map p.trace)
      planned
  in
  let tours = Tour_gen.of_traces (Array.map (fun p -> p.trace) planned) in
  let scalar () = check_scalar ?progress tr graph tours vectors in
  match engine with
  | `Scalar -> scalar ()
  | `Sliced -> (
    let t0 = Obs.Clock.now_s () in
    match Replay.check_lanes ~dut:tr.Translate.elab tr graph tours vectors with
    | None -> scalar ()
    | Some r ->
      Array.iteri
        (fun c v ->
          exec_span c (Array.length v) t0;
          Option.iter Avp_obs.Progress.tick progress)
        vectors;
      Result.map ignore r)
