open Avp_fsm
module Obs = Avp_obs.Obs
module Replay = Avp_vectors.Replay
module Tour_gen = Avp_tour.Tour_gen

(* Candidate evaluation: plan (model walk), realize (condition map),
   then execute the vectors and check the design against the plan.

   Planning walks the translated model's [next] from reset — the
   model may step a shared reference simulator, so planning and
   realization stay sequential on the calling domain (the same
   constraint as [Replay.vectors]).  The plan is a candidate's only
   record: the fuzzing loop commits its walk to coverage, and
   execution checks that the design takes exactly that walk — every
   annotated state net against the planned state's valuation, at
   reset release and after every clock edge, the step-4 replay
   check.  On the pristine design the two provably agree (the replay
   theorems); a disagreement is a translation or replay bug, which
   the loop reports. *)

type planned = {
  choices : Corpus.entry;
  trace : Tour_gen.trace;
}

let plan (model : Model.t) (graph : Avp_enum.State_graph.t)
    (entry : Corpus.entry) =
  { choices = entry; trace = Tour_gen.walk model graph entry }

let mismatch_detail m = Format.asprintf "%a" Replay.pp_mismatch m

(* The scalar engine is the replay checker itself, over the round's
   plans as one tour set: it reports the lowest-numbered diverging
   trace.  A state net at x/z escapes the checker as
   [Translate.Unsupported], without a trace index, so that failure is
   located by re-checking the candidates one at a time. *)
let check_scalar ~domains ?progress (tr : Translate.result) graph
    (planned : planned array) (vectors : Avp_vectors.Vector.t array) =
  let tours = Tour_gen.of_traces (Array.map (fun p -> p.trace) planned) in
  match Replay.check ~domains ?progress ~vectors tr graph tours with
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

(* The sliced engine packs up to 62 candidates per kernel, each lane
   under its own stimulus, and checks each lane's state nets against
   its own plan every cycle.  A lane's first divergence is recorded in
   the scalar checker's terms: the first mismatching net in state-net
   order, or the message of a net that left the defined domain. *)
let check_sliced ~domains ?progress (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (planned : planned array)
    (vectors : Avp_vectors.Vector.t array) =
  let design = tr.Translate.elab in
  let n = Array.length planned in
  let lanes = Avp_logic.Bv_sliced.lanes_limit in
  let units = Avp_hdl.Compile.units design in
  match
    Avp_hdl.Sliced.create ~u:units ~lanes:(min lanes (max 1 n)) design
  with
  | None -> None (* design outside the sliced kernel's coverage *)
  | Some _ ->
    let nets = Replay.state_nets tr in
    let net_id nm = (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id in
    let net_ids = Array.map net_id nets in
    let clock = net_id tr.Translate.clock
    and reset = net_id tr.Translate.reset in
    let one = Avp_logic.Bv.of_int ~width:1 1
    and zero = Avp_logic.Bv.of_int ~width:1 0 in
    let states = graph.Avp_enum.State_graph.states in
    let failures = Array.make n None in
    let chunks = (n + lanes - 1) / lanes in
    let run_chunk ci =
      let c0 = ci * lanes in
      let k = min lanes (n - c0) in
      let t0s = Array.init k (fun _ -> Obs.Clock.now_s ()) in
      let sim =
        match Avp_hdl.Sliced.create ~u:units ~lanes:k design with
        | Some s -> s
        | None -> assert false (* coverage probed above *)
      in
      (* The hot loop resolves a net name per (lane, action); the
         realized vectors share one physical string per choice
         variable, so a tiny pointer-equality cache beats hashing the
         string every time (a distinct physical copy of a name merely
         adds a duplicate entry with the same uid). *)
      let lookup =
        let cache = ref [] in
        fun nm ->
          let rec find = function
            | [] ->
              let id = net_id nm in
              cache := (nm, id) :: !cache;
              id
            | (nm', id) :: rest -> if nm' == nm then id else find rest
          in
          find !cache
      in
      let len j = Array.length vectors.(c0 + j) in
      let maxlen = ref 0 in
      for j = 0 to k - 1 do
        maxlen := max !maxlen (len j)
      done;
      let check cycle =
        for j = 0 to k - 1 do
          let c = c0 + j in
          if cycle < len j && failures.(c) = None then begin
            let trace = planned.(c).trace in
            let predicted =
              states.(if cycle < 0 then trace.(0).Tour_gen.src
                      else trace.(cycle).Tour_gen.dst)
            in
            let rec net vi =
              if vi < Array.length net_ids then begin
                let id = net_ids.(vi) and p = predicted.(vi) in
                let bad, neq =
                  Avp_hdl.Sliced.check_net ~mask:(1 lsl j) sim id ~predicted:p
                in
                if bad lor neq = 0 then net (vi + 1)
                else
                  failures.(c) <-
                    Some
                      (match
                         Translate.value_of_bv
                           (Avp_hdl.Sliced.get_lane sim ~lane:j id)
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
                       | exception Translate.Unsupported msg -> msg)
              end
            in
            net 0
          end
        done
      in
      Avp_hdl.Sliced.set_id sim reset one;
      Avp_hdl.Sliced.step sim clock;
      Avp_hdl.Sliced.set_id sim reset zero;
      check (-1);
      (* Per-lane stimulus, grouped per net and applied once per cycle
         ([Sliced.force_lanes]): nothing observes the nets between the
         actions and the clock edge, so deferring the forces to the
         end of the action list is invisible — except to a same-cycle
         same-net Release on the same lane, which cancels the pending
         force exactly as the sequential order would. *)
      let nnets = Array.length design.Avp_hdl.Elab.nets in
      let pending = Array.make nnets [||] in
      let pending_ids = ref [] in
      for c = 0 to !maxlen - 1 do
        for j = 0 to k - 1 do
          if c < len j then
            List.iter
              (fun a ->
                match a with
                | Avp_vectors.Vector.Force (nm, v) ->
                  let id = lookup nm in
                  if Array.length pending.(id) = 0 then
                    pending.(id) <- Array.make k None;
                  let fbuf = pending.(id) in
                  if not (List.memq id !pending_ids) then
                    pending_ids := id :: !pending_ids;
                  fbuf.(j) <- Some v
                | Avp_vectors.Vector.Release nm ->
                  let id = lookup nm in
                  if Array.length pending.(id) > 0 then
                    pending.(id).(j) <- None;
                  Avp_hdl.Sliced.release_id ~mask:(1 lsl j) sim id)
              vectors.(c0 + j).(c).Avp_vectors.Vector.actions
        done;
        List.iter
          (fun id ->
            let fbuf = pending.(id) in
            Avp_hdl.Sliced.force_lanes sim id fbuf;
            Array.fill fbuf 0 k None)
          !pending_ids;
        pending_ids := [];
        Avp_hdl.Sliced.step sim clock;
        check c
      done;
      for j = 0 to k - 1 do
        exec_span (c0 + j) (len j) t0s.(j);
        match progress with
        | Some p -> Avp_obs.Progress.tick p
        | None -> ()
      done
    in
    Avp_enum.Pool.iter ~domains chunks run_chunk;
    let rec first i =
      if i = n then Ok ()
      else
        match failures.(i) with
        | Some detail -> Error (i, detail)
        | None -> first (i + 1)
    in
    Some (first 0)

let run ?(engine : [ `Scalar | `Sliced ] = `Sliced) ?(domains = 1) ?progress
    (tr : Translate.result) (graph : Avp_enum.State_graph.t)
    (planned : planned array) =
  let map = Avp_vectors.Condition_map.of_translation tr in
  let vectors =
    Array.map
      (fun p -> Avp_vectors.Condition_map.vectors_of_trace map p.trace)
      planned
  in
  let scalar () = check_scalar ~domains ?progress tr graph planned vectors in
  match engine with
  | `Scalar -> scalar ()
  | `Sliced -> (
    match check_sliced ~domains ?progress tr graph planned vectors with
    | Some r -> r
    | None -> scalar ())
