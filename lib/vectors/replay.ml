open Avp_fsm
module Obs = Avp_obs.Obs

type stats = {
  traces : int;
  cycles : int;
}

type mismatch = {
  trace : int;
  cycle : int;
  net : string;
  actual : int;
  predicted : int;
}

let pp_mismatch ppf m =
  if m.cycle < 0 then
    Format.fprintf ppf
      "trace %d at reset release: %s = %d but the tour predicted %d" m.trace
      m.net m.actual m.predicted
  else
    Format.fprintf ppf
      "trace %d cycle %d: %s = %d but the tour predicted %d" m.trace m.cycle
      m.net m.actual m.predicted

exception Found of mismatch

(* Replay one vector sequence on a fresh simulator, comparing the
   given nets against [predict cycle net_index] after reset (cycle -1)
   and after every clock edge; returns the cycles consumed and the
   first mismatch, if any.  The template is built once per design and
   instantiated per trace, so a multi-hundred-trace replay pays
   static analysis and bytecode assembly a single time instead of
   once per trace. *)
let run_nets ~tpl ~(tr : Translate.result) ~(nets : string array) ~predict
    ti vectors =
  let cycles = ref 0 in
  let sim = Avp_hdl.Sim.instantiate tpl in
  let compare_at cycle =
    Array.iteri
      (fun vi net ->
        let predicted = predict cycle vi in
        let actual = Translate.value_of_bv (Avp_hdl.Sim.get sim net) in
        if actual <> predicted then
          raise (Found { trace = ti; cycle; net; actual; predicted }))
      nets
  in
  match
    Condition_map.apply vectors sim ~clock:tr.Translate.clock
      ~reset:tr.Translate.reset
      ~on_reset:(fun () -> compare_at (-1))
      ~on_cycle:(fun i ->
        incr cycles;
        compare_at i)
  with
  | () -> (!cycles, None)
  | exception Found m -> (!cycles, Some m)

(* Shard traces round-robin over domains, one simulator per trace;
   every domain works on disjoint indices of [results].  The merge is
   deterministic and identical to the sequential left-to-right scan:
   cycles of every trace before the first failing one count, plus the
   failing trace's partial cycles; the reported mismatch is the
   lowest-numbered trace's. *)
(* Small replays lose more to domain spawn and cache contention than
   they gain: stay sequential unless every domain gets at least this
   many cycles of work (the same shape as the enumerator's frontier
   threshold). *)
let parallel_threshold = 4096

let effective_domains ~domains ~total_cycles =
  max 1 (min domains (total_cycles / parallel_threshold))

let sharded ?progress ~domains ~n run =
  let results = Array.make n (0, None) in
  (* The parent span covers dispatch, the shards and the scan — the
     profiler's envelope for replay's serial fraction.  Its args (and
     the constant flow id linking it to the per-trace spans in the
     Chrome viewer) must not depend on [domains], or the normalized
     trace would stop being [-j]-invariant. *)
  Obs.span ~cat:"replay" "replay.run"
    ~args:[ ("traces", Obs.Int n); ("flow_out", Obs.Int 0) ]
  @@ fun () ->
  (* Telemetry is per trace, not per cycle, and its args (trace index,
     cycles, verdict) are the deterministic replay results — so the
     normalized event set is identical for any [domains]. *)
  let job ti =
    let t0 = Obs.Clock.now_s () in
    let ((c, m) as r) = run ti in
    if Obs.enabled () then
      Obs.complete ~cat:"replay" "replay.trace"
        ~dur_s:(Obs.Clock.now_s () -. t0)
        ~args:
          [
            ("trace", Obs.Int ti);
            ("cycles", Obs.Int c);
            ("ok", Obs.Bool (Option.is_none m));
            ("flow_in", Obs.Int 0);
          ];
    (match progress with
     | Some p -> Avp_obs.Progress.tick p
     | None -> ());
    results.(ti) <- r
  in
  let domains = max 1 (min domains (max 1 n)) in
  if domains = 1 then
    for ti = 0 to n - 1 do
      job ti
    done
  else
    Avp_enum.Pool.with_pool ~domains (fun pool ->
        Avp_enum.Pool.run pool (fun slot ->
            let ti = ref slot in
            while !ti < n do
              job !ti;
              ti := !ti + domains
            done));
  let rec scan ti cycles =
    if ti = n then Ok { traces = n; cycles }
    else
      match results.(ti) with
      | c, None -> scan (ti + 1) (cycles + c)
      | _, Some m -> Error m
  in
  scan 0 0

(* The model's [next] may drive a shared reference simulator, so
   vector generation stays sequential; the replay itself dominates
   the cost and is embarrassingly parallel. *)
let vectors (tr : Translate.result) (tours : Avp_tour.Tour_gen.t) =
  let map = Condition_map.of_translation tr in
  Array.map
    (Condition_map.vectors_of_trace map tr.Translate.model)
    tours.Avp_tour.Tour_gen.traces

let state_nets (tr : Translate.result) =
  Array.map
    (fun (b : Translate.binding) -> b.Translate.net.Avp_hdl.Elab.name)
    tr.Translate.state_bindings

let total_cycles (vectors : Vector.t array) =
  Array.fold_left (fun acc v -> acc + Array.length v) 0 vectors

(* Vector budget consumed up to and including a detecting cycle: the
   full length of every trace before the mismatching one, plus the
   cycles of the mismatching trace itself.  The post-reset check
   (cycle -1) costs no vectors.  This is the "vectors-to-kill" cost
   the generator comparison reports. *)
let cycles_until (vectors : Vector.t array) (m : mismatch) =
  let acc = ref 0 in
  for ti = 0 to min (m.trace - 1) (Array.length vectors - 1) do
    acc := !acc + Array.length vectors.(ti)
  done;
  !acc + max 0 (m.cycle + 1)

let check ?dut ?(domains = 1) ?progress ?vectors:vecs (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (tours : Avp_tour.Tour_gen.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let traces = tours.Avp_tour.Tour_gen.traces in
  let n = Array.length traces in
  let vectors = match vecs with Some v -> v | None -> vectors tr tours in
  let nets = state_nets tr in
  let tpl = Avp_hdl.Sim.template design in
  let domains =
    effective_domains ~domains ~total_cycles:(total_cycles vectors)
  in
  sharded ?progress ~domains ~n (fun ti ->
      let trace = traces.(ti) in
      let predict cycle vi =
        let state =
          if cycle < 0 then trace.(0).Avp_tour.Tour_gen.src
          else trace.(cycle).Avp_tour.Tour_gen.dst
        in
        graph.Avp_enum.State_graph.states.(state).(vi)
      in
      run_nets ~tpl ~tr ~nets ~predict ti vectors.(ti))

let record ?dut (tr : Translate.result) ~(nets : string array)
    (vectors : Vector.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let rows = Array.make_matrix (Array.length vectors + 1) (Array.length nets) 0 in
  let sim = Avp_hdl.Sim.create design in
  let snap row =
    Array.iteri
      (fun vi net ->
        rows.(row).(vi) <- Translate.value_of_bv (Avp_hdl.Sim.get sim net))
      nets
  in
  Condition_map.apply vectors sim ~clock:tr.Translate.clock
    ~reset:tr.Translate.reset
    ~on_reset:(fun () -> snap 0)
    ~on_cycle:(fun i -> snap (i + 1));
  rows

let check_nets ~dut ?(domains = 1) ?progress (tr : Translate.result)
    ~(nets : string array) ~(predicted : int array array array)
    (vectors : Vector.t array) =
  let n = Array.length vectors in
  let tpl = Avp_hdl.Sim.template dut in
  let domains =
    effective_domains ~domains ~total_cycles:(total_cycles vectors)
  in
  sharded ?progress ~domains ~n (fun ti ->
      let rows = predicted.(ti) in
      let predict cycle vi = rows.(cycle + 1).(vi) in
      run_nets ~tpl ~tr ~nets ~predict ti vectors.(ti))

(* ------------------------------------------------------------------ *)
(* Batched replay: many traces per word on the sliced kernel         *)
(* ------------------------------------------------------------------ *)

(* One sliced simulator carries up to 62 traces at once: stimulus is
   applied lane-masked (each lane follows its own tour trace), the
   clock steps all lanes in lockstep, and the per-cycle state checks
   read lane masks off the transposed net words.  Lanes whose trace
   is shorter than the chunk's longest keep stepping after their last
   vector — harmless, since nothing is checked past the trace end.

   The outcome is assembled to match the sequential scalar run
   exactly: an [Unsupported] (a checked net leaving the defined
   domain) in the lowest-numbered trace that has one is re-raised —
   even past an earlier trace's recorded mismatch, because the scalar
   loop runs every trace and the exception escapes the scan — and
   otherwise the lowest-numbered mismatch is reported. *)
let check_batch ?dut ?(lanes = Avp_logic.Bv_sliced.lanes_limit)
    ?(domains = 1) ?progress ?vectors:vecs (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (tours : Avp_tour.Tour_gen.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let traces = tours.Avp_tour.Tour_gen.traces in
  let n = Array.length traces in
  let vectors = match vecs with Some v -> v | None -> vectors tr tours in
  let lanes = max 1 (min lanes Avp_logic.Bv_sliced.lanes_limit) in
  let units = Avp_hdl.Compile.units design in
  match Avp_hdl.Sliced.create ~u:units ~lanes:(min lanes (max 1 n)) design with
  | None ->
    (* Design outside the sliced kernel's coverage: scalar path. *)
    check ?dut ~domains ?progress ~vectors tr graph tours
  | Some _ ->
    let nets = state_nets tr in
    let net_ids =
      Array.map (fun nm -> (Avp_hdl.Elab.net design nm).Avp_hdl.Elab.id) nets
    in
    let clock = (Avp_hdl.Elab.net design tr.Translate.clock).Avp_hdl.Elab.id
    and reset =
      (Avp_hdl.Elab.net design tr.Translate.reset).Avp_hdl.Elab.id
    in
    let one = Avp_logic.Bv.of_int ~width:1 1
    and zero = Avp_logic.Bv.of_int ~width:1 0 in
    (* The hot loop resolves a net name per (lane, action) — ~8 per
       lane per cycle.  The generated vectors share one physical
       string per choice variable, so a tiny pointer-equality cache
       beats hashing the string tens of thousands of times; distinct
       physical copies of the same name merely add a duplicate entry
       with the same uid. *)
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
    let chunks = (n + lanes - 1) / lanes in
    (* Per-trace outcome, [`Ok cycles | `Mis m | `Exn msg]. *)
    let outcome = Array.make n (`Ok 0) in
    let run_chunk ci =
      let t0 = ci * lanes in
      let k = min lanes (n - t0) in
      let sim =
        match Avp_hdl.Sliced.create ~u:units ~lanes:k design with
        | Some s -> s
        | None -> assert false (* coverage probed above *)
      in
      let predict j cycle vi =
        let trace = traces.(t0 + j) in
        let state =
          if cycle < 0 then trace.(0).Avp_tour.Tour_gen.src
          else trace.(cycle).Avp_tour.Tour_gen.dst
        in
        graph.Avp_enum.State_graph.states.(state).(vi)
      in
      let len j = Array.length vectors.(t0 + j) in
      let maxlen = ref 0 in
      for j = 0 to k - 1 do
        if len j > !maxlen then maxlen := len j
      done;
      let issue = Array.make k None in
      let pred_buf = Array.make k 0 in
      let compare_at cycle =
        Array.iteri
          (fun vi net ->
            let mask = ref 0 in
            for j = 0 to k - 1 do
              if issue.(j) = None && (cycle < 0 || cycle < len j) then begin
                mask := !mask lor (1 lsl j);
                pred_buf.(j) <- predict j cycle vi
              end
              else pred_buf.(j) <- 0
            done;
            if !mask <> 0 then begin
              let bad, neq =
                Avp_hdl.Sliced.check_net_lanes ~mask:!mask sim net_ids.(vi)
                  ~predicted:pred_buf
              in
              let flagged = bad lor neq in
              if flagged <> 0 then
                for j = 0 to k - 1 do
                  if (flagged lsr j) land 1 = 1 then begin
                    let bv = Avp_hdl.Sliced.get_lane sim ~lane:j net_ids.(vi) in
                    match Translate.value_of_bv bv with
                    | actual ->
                      issue.(j) <-
                        Some
                          (`Mis
                             {
                               trace = t0 + j;
                               cycle;
                               net;
                               actual;
                               predicted = pred_buf.(j);
                             })
                    | exception Translate.Unsupported msg ->
                      issue.(j) <- Some (`Exn msg)
                  end
                done
            end)
          nets
      in
      Avp_hdl.Sliced.set_id sim reset one;
      Avp_hdl.Sliced.step sim clock;
      Avp_hdl.Sliced.set_id sim reset zero;
      compare_at (-1);
      (* Forces are grouped per net and applied once per cycle
         ([Sliced.force_lanes]); nothing observes the nets between
         the actions and the clock edge, so deferring to the end of
         the action list is invisible — except to a same-cycle
         same-net Release on the same lane, which cancels the pending
         force exactly as the sequential order would.  The pending
         buffers are indexed by uid directly: the loop body runs once
         per (lane, action) and must stay allocation- and hash-free. *)
      let nnets = Array.length design.Avp_hdl.Elab.nets in
      let pending = Array.make nnets [||] in
      let pending_ids = ref [] in
      for c = 0 to !maxlen - 1 do
        for j = 0 to k - 1 do
          if c < len j then
            List.iter
              (fun a ->
                match a with
                | Vector.Force (nm, v) ->
                  let id = lookup nm in
                  if Array.length pending.(id) = 0 then
                    pending.(id) <- Array.make k None;
                  let buf = pending.(id) in
                  if not (List.memq id !pending_ids) then
                    pending_ids := id :: !pending_ids;
                  buf.(j) <- Some v
                | Vector.Release nm ->
                  let id = lookup nm in
                  if Array.length pending.(id) > 0 then
                    pending.(id).(j) <- None;
                  Avp_hdl.Sliced.release_id ~mask:(1 lsl j) sim id)
              vectors.(t0 + j).(c).Vector.actions
        done;
        List.iter
          (fun id ->
            let buf = pending.(id) in
            Avp_hdl.Sliced.force_lanes sim id buf;
            Array.fill buf 0 k None)
          !pending_ids;
        pending_ids := [];
        Avp_hdl.Sliced.step sim clock;
        compare_at c
      done;
      for j = 0 to k - 1 do
        (outcome.(t0 + j) <-
           (match issue.(j) with
            | None -> `Ok (len j)
            | Some (`Mis m) -> `Mis m
            | Some (`Exn msg) -> `Exn msg));
        match progress with
        | Some p -> Avp_obs.Progress.tick p
        | None -> ()
      done
    in
    let domains =
      effective_domains ~domains ~total_cycles:(total_cycles vectors)
    in
    let domains = max 1 (min domains (max 1 chunks)) in
    if domains = 1 then
      for ci = 0 to chunks - 1 do
        run_chunk ci
      done
    else
      Avp_enum.Pool.with_pool ~domains (fun pool ->
          Avp_enum.Pool.run pool (fun slot ->
              let ci = ref slot in
              while !ci < chunks do
                run_chunk !ci;
                ci := !ci + domains
              done));
    (* Scalar-equivalent assembly: lowest-trace exception first. *)
    Array.iter
      (function
        | `Exn msg -> raise (Translate.Unsupported msg)
        | `Ok _ | `Mis _ -> ())
      outcome;
    let rec scan ti cycles =
      if ti = n then Ok { traces = n; cycles }
      else
        match outcome.(ti) with
        | `Ok c -> scan (ti + 1) (cycles + c)
        | `Mis m -> Error m
        | `Exn _ -> assert false
    in
    scan 0 0

(* Replay one trace's vectors with a VCD dump attached: the waveform
   artifact behind the CLI's [--vcd], showing state nets toggling
   under annotated force/release stimulus. *)
let dump_vcd ?dut ?nets (tr : Translate.result) (vector : Vector.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let nets =
    match nets with
    | Some ns -> ns
    | None ->
      (* Clock, reset, the annotated state nets, then every net the
         vectors touch — deduplicated, first occurrence wins. *)
      let forced = ref [] in
      Array.iter
        (fun (c : Vector.cycle) ->
          List.iter
            (function
              | Vector.Force (n, _) -> forced := n :: !forced
              | Vector.Release n -> forced := n :: !forced)
            c.Vector.actions)
        vector;
      let candidates =
        (tr.Translate.clock :: tr.Translate.reset
         :: Array.to_list (state_nets tr))
        @ List.rev !forced
      in
      let seen = Hashtbl.create 16 in
      List.filter
        (fun n ->
          if Hashtbl.mem seen n then false
          else begin
            Hashtbl.add seen n ();
            true
          end)
        candidates
  in
  let sim = Avp_hdl.Sim.create design in
  let vcd = Avp_hdl.Vcd.attach sim ~nets in
  Condition_map.apply vector sim ~clock:tr.Translate.clock
    ~reset:tr.Translate.reset
    ~on_cycle:(fun _ -> ());
  Avp_hdl.Vcd.detach vcd;
  Avp_hdl.Vcd.serialize ~top:tr.Translate.model.Model.model_name vcd
