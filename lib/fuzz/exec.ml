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

   Execution runs on the bit-sliced kernel, one candidate per one-lane
   slot of the vector scheduler ({!Avp_vectors.Slots}), the same replay
   loop the mutation campaign's detect passes and the output recording
   use; the scalar replay checker stays the fallback and the oracle. *)

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
    (planned : planned array) (vectors : Avp_vectors.Vector.t array) =
  let tours = Tour_gen.of_traces (Array.map (fun p -> p.trace) planned) in
  match Replay.check ?progress ~vectors tr graph tours with
  | Ok _ -> Ok ()
  | Error m -> Error (m.Replay.trace, mismatch_detail m)
  | exception Translate.Unsupported _ ->
    let rec locate i =
      let one = Tour_gen.of_traces [| planned.(i).trace |] in
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

(* The sliced engine replays the candidates as one-lane slots
   ({!Avp_vectors.Slots}), up to 62 at a time, each lane under its own
   stimulus, and checks each lane's state nets against its own plan
   every cycle.  A lane's first divergence is recorded in the scalar
   checker's terms — the first mismatching net in state-net order, or
   the message of a net that left the defined domain — and freezes the
   lane, so its slot takes the next candidate. *)
let check_sliced ?progress (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (planned : planned array)
    (vectors : Avp_vectors.Vector.t array) =
  let design = tr.Translate.elab in
  let n = Array.length planned in
  let lanes = min Avp_logic.Bv_sliced.lanes_limit (max 1 n) in
  match Avp_hdl.Sliced.create ~lanes design with
  | None -> None (* design outside the sliced kernel's coverage *)
  | Some sim ->
    let nets = Replay.state_nets tr in
    let net_ids =
      Array.map (fun nm -> (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id) nets
    in
    let states = graph.Avp_enum.State_graph.states in
    let failures = Array.make n None in
    let t0 = Obs.Clock.now_s () in
    let check ~slot c cycle =
      let trace = planned.(c).trace in
      let predicted =
        states.(if cycle < 0 then trace.(0).Tour_gen.src
                else trace.(cycle).Tour_gen.dst)
      in
      let rec net vi =
        if vi < Array.length net_ids then begin
          let id = net_ids.(vi) and p = predicted.(vi) in
          let bad, neq =
            Avp_hdl.Sliced.check_net ~mask:(1 lsl slot) sim id ~predicted:p
          in
          if bad lor neq = 0 then net (vi + 1)
          else begin
            failures.(c) <-
              Some
                (match
                   Translate.value_of_bv
                     (Avp_hdl.Sliced.get_lane sim ~lane:slot id)
                 with
                 | actual ->
                   mismatch_detail
                     {
                       Replay.trace = c;
                       cycle;
                       net = nets.(vi);
                       actual;
                       predicted = p;
                     }
                 | exception Translate.Unsupported msg -> msg);
            Avp_hdl.Sliced.freeze sim ~mask:(1 lsl slot)
          end
        end
      in
      net 0
    in
    Avp_vectors.Slots.run sim tr ~width:1 vectors
      ~on_reset:(fun ~slot c -> check ~slot c (-1))
      ~on_cycle:(fun ~slot c i -> check ~slot c i);
    for c = 0 to n - 1 do
      exec_span c (Array.length vectors.(c)) t0;
      match progress with
      | Some p -> Avp_obs.Progress.tick p
      | None -> ()
    done;
    let rec first i =
      if i = n then Ok ()
      else
        match failures.(i) with
        | Some detail -> Error (i, detail)
        | None -> first (i + 1)
    in
    Some (first 0)

let run ?(engine : [ `Scalar | `Sliced ] = `Sliced) ?progress
    (tr : Translate.result) ~map (graph : Avp_enum.State_graph.t)
    (planned : planned array) =
  let vectors =
    Array.map
      (fun p -> Avp_vectors.Condition_map.vectors_of_trace map p.trace)
      planned
  in
  let scalar () = check_scalar ?progress tr graph planned vectors in
  match engine with
  | `Scalar -> scalar ()
  | `Sliced -> (
    match check_sliced ?progress tr graph planned vectors with
    | Some r -> r
    | None -> scalar ())
