open Avp_fsm
module Obs = Avp_obs.Obs

(* Candidate evaluation: plan (model walk), realize (condition map),
   execute (scalar or bit-sliced engine), observe (per-cycle state-id
   projection).

   Planning walks the translated model's [next] from reset — the
   model may step a shared reference simulator, so planning is always
   sequential on the calling domain (same constraint as
   [Replay.vectors]).  Execution replays the realized force/release
   vectors on fresh engine instances and reads the annotated state
   nets back each cycle, projecting the valuation onto the enumerated
   graph's state ids; that observation — not the plan — is what the
   fuzzing loop feeds to coverage, so the feedback signal is the
   executed hardware's behaviour, exactly like the RTL arc-coverage
   harness.  On the pristine design observation and plan provably
   agree (the replay theorems of PRs 2/4); the loop checks it. *)

type planned = {
  choices : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;
}

let plan (model : Model.t) (graph : Avp_enum.State_graph.t)
    (entry : Corpus.entry) =
  { choices = entry; trace = Avp_tour.Tour_gen.walk model graph entry }

(* The state ids the plan predicts: index 0 is the post-reset state,
   index i+1 the state after cycle i. *)
let planned_ids p =
  let n = Array.length p.trace in
  Array.init (n + 1) (fun i ->
      if i = 0 then
        if n = 0 then 0 else p.trace.(0).Avp_tour.Tour_gen.src
      else p.trace.(i - 1).Avp_tour.Tour_gen.dst)

let vectors_of (tr : Translate.result) (planned : planned array) =
  let map = Avp_vectors.Condition_map.of_translation tr in
  Array.map
    (fun p ->
      Avp_vectors.Condition_map.vectors_of_trace map tr.Translate.model
        p.trace)
    planned

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

let shard ~domains n job =
  let domains = max 1 (min domains (max 1 n)) in
  if domains = 1 then
    for i = 0 to n - 1 do
      job i
    done
  else
    Avp_enum.Pool.with_pool ~domains (fun pool ->
        Avp_enum.Pool.run pool (fun slot ->
            let i = ref slot in
            while !i < n do
              job !i;
              i := !i + domains
            done))

let run_scalar ?(domains = 1) ?progress (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (planned : planned array)
    (vectors : Avp_vectors.Vector.t array) =
  let design = tr.Translate.elab in
  let nets = Avp_vectors.Replay.state_nets tr in
  let tpl = Avp_hdl.Sim.template design in
  let n = Array.length planned in
  let results = Array.make n [||] in
  shard ~domains n (fun i ->
      let t0 = Obs.Clock.now_s () in
      let len = Array.length vectors.(i) in
      let sim = Avp_hdl.Sim.instantiate tpl in
      let row = Array.make (len + 1) (-1) in
      let buf = Array.make (Array.length nets) 0 in
      let observe ri =
        let ok = ref true in
        Array.iteri
          (fun vi net ->
            match Translate.value_of_bv (Avp_hdl.Sim.get sim net) with
            | v -> buf.(vi) <- v
            | exception Translate.Unsupported _ -> ok := false)
          nets;
        row.(ri) <-
          (if not !ok then -1
           else
             match Avp_enum.State_graph.find_state graph buf with
             | Some id -> id
             | None -> -1)
      in
      Avp_vectors.Condition_map.apply vectors.(i) sim
        ~clock:tr.Translate.clock ~reset:tr.Translate.reset
        ~on_reset:(fun () -> observe 0)
        ~on_cycle:(fun c -> observe (c + 1));
      results.(i) <- row;
      exec_span i len t0;
      match progress with
      | Some p -> Avp_obs.Progress.tick p
      | None -> ());
  results

let run_sliced ?(domains = 1) ?progress (tr : Translate.result)
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
    let nets = Avp_vectors.Replay.state_nets tr in
    let net_ids =
      Array.map
        (fun nm -> (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id)
        nets
    in
    let clock =
      (Avp_hdl.Elab.net design tr.Translate.clock).Avp_hdl.Elab.id
    and reset =
      (Avp_hdl.Elab.net design tr.Translate.reset).Avp_hdl.Elab.id
    in
    let one = Avp_logic.Bv.of_int ~width:1 1
    and zero = Avp_logic.Bv.of_int ~width:1 0 in
    (* The hot loop resolves a net name per (lane, action); the
       realized vectors share one physical string per choice variable,
       so a tiny pointer-equality cache beats hashing the string every
       time (a distinct physical copy of a name merely adds a
       duplicate entry with the same uid). *)
    let lookup =
      let cache = ref [] in
      fun nm ->
        let rec find = function
          | [] ->
            let id = (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id in
            cache := (nm, id) :: !cache;
            id
          | (nm', id) :: rest -> if nm' == nm then id else find rest
        in
        find !cache
    in
    let results = Array.make n [||] in
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
      let len j = Array.length vectors.(c0 + j) in
      let maxlen = ref 0 in
      let rows =
        Array.init k (fun j ->
            if len j > !maxlen then maxlen := len j;
            Array.make (len j + 1) (-1))
      in
      let buf = Array.make (Array.length nets) 0 in
      let observe cycle =
        for j = 0 to k - 1 do
          if cycle < len j then begin
            let ok = ref true in
            Array.iteri
              (fun vi id ->
                let bv = Avp_hdl.Sliced.get_lane sim ~lane:j id in
                match Translate.value_of_bv bv with
                | v -> buf.(vi) <- v
                | exception Translate.Unsupported _ -> ok := false)
              net_ids;
            rows.(j).(cycle + 1) <-
              (if not !ok then -1
               else
                 match Avp_enum.State_graph.find_state graph buf with
                 | Some id -> id
                 | None -> -1)
          end
        done
      in
      Avp_hdl.Sliced.set_id sim reset one;
      Avp_hdl.Sliced.step sim clock;
      Avp_hdl.Sliced.set_id sim reset zero;
      observe (-1);
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
        observe c
      done;
      for j = 0 to k - 1 do
        results.(c0 + j) <- rows.(j);
        exec_span (c0 + j) (len j) t0s.(j);
        match progress with
        | Some p -> Avp_obs.Progress.tick p
        | None -> ()
      done
    in
    shard ~domains chunks run_chunk;
    Some results

let run ?(engine : [ `Scalar | `Sliced ] = `Sliced) ?domains ?progress
    (tr : Translate.result) (graph : Avp_enum.State_graph.t)
    (planned : planned array) =
  let vectors = vectors_of tr planned in
  match engine with
  | `Scalar -> run_scalar ?domains ?progress tr graph planned vectors
  | `Sliced -> (
    match run_sliced ?domains ?progress tr graph planned vectors with
    | Some r -> r
    | None -> run_scalar ?domains ?progress tr graph planned vectors)
