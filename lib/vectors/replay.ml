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

(* Replay one vector sequence on a fresh interpreter, comparing the
   given nets against [predict cycle net_index] after reset (cycle -1)
   and after every clock edge; returns the cycles consumed and the
   first mismatch, if any. *)
let run_nets ~design ~(tr : Translate.result) ~(nets : string array) ~predict
    ti vectors =
  let cycles = ref 0 in
  let sim = Avp_hdl.Sim.create design in
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

(* Replay every trace in order, one simulator per trace, and report
   the lowest-numbered trace's mismatch.  Every trace runs even after
   a mismatch, so a later trace's exception still reaches the
   caller. *)
let replay_all ?progress ~n run =
  let cycles = ref 0 and first = ref None in
  (* The parent span covers every replay; the constant flow id links
     it to the per-trace spans in the Chrome viewer. *)
  Obs.span ~cat:"replay" "replay.run"
    ~args:[ ("traces", Obs.Int n); ("flow_out", Obs.Int 0) ]
  @@ fun () ->
  (* Telemetry is per trace, not per cycle, and its args (trace index,
     cycles, verdict) are the deterministic replay results. *)
  for ti = 0 to n - 1 do
    let t0 = Obs.Clock.now_s () in
    let c, m = run ti in
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
    cycles := !cycles + c;
    if Option.is_none !first then first := m
  done;
  match !first with
  | None -> Ok { traces = n; cycles = !cycles }
  | Some m -> Error m

let vectors (tr : Translate.result) (tours : Avp_tour.Tour_gen.t) =
  let map = Condition_map.of_translation tr in
  Array.map (Condition_map.vectors_of_trace map) tours.Avp_tour.Tour_gen.traces

let state_nets (tr : Translate.result) =
  Array.map
    (fun (b : Translate.binding) -> b.Translate.net.Avp_hdl.Elab.name)
    tr.Translate.state_bindings

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

let predicted_state (trace : Avp_tour.Tour_gen.trace) cycle =
  if cycle < 0 then trace.(0).Avp_tour.Tour_gen.src
  else trace.(cycle).Avp_tour.Tour_gen.dst

let check ?dut ?progress ?vectors:vecs (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (tours : Avp_tour.Tour_gen.t) =
  let design = Option.value ~default:tr.Translate.elab dut in
  let traces = tours.Avp_tour.Tour_gen.traces in
  let n = Array.length traces in
  let vectors = match vecs with Some v -> v | None -> vectors tr tours in
  let nets = state_nets tr in
  replay_all ?progress ~n (fun ti ->
      let trace = traces.(ti) in
      let predict cycle vi =
        graph.Avp_enum.State_graph.states.(predicted_state trace cycle).(vi)
      in
      run_nets ~design ~tr ~nets ~predict ti vectors.(ti))

(* Every trace on one kernel of [dut], one trace per one-lane slot
   ({!Slots}), each lane checking the state nets against its own
   trace's predictions at reset release and after every cycle.  A
   lane's first divergence is recorded in [check]'s terms (the first
   mismatching net in state-net order, or the message of a net that
   left the defined domain) and freezes the lane, so its slot takes the
   next trace.  [None] when the kernel rejects the design or a step
   raised. *)
let check_lanes ~dut (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) (tours : Avp_tour.Tour_gen.t)
    (vectors : Vector.t array) =
  let traces = tours.Avp_tour.Tour_gen.traces in
  let n = Array.length traces in
  let lanes = min Avp_logic.Bv_sliced.lanes_limit (max 1 n) in
  match Avp_hdl.Sliced.create ~lanes dut with
  | None -> None
  | Some sim -> (
    let nets = state_nets tr in
    let states = graph.Avp_enum.State_graph.states in
    let failures = Array.make n None in
    let check ids ~slot t cycle =
      let predicted = states.(predicted_state traces.(t) cycle) in
      let rec net vi =
        if vi < Array.length ids then begin
          let id = ids.(vi) and p = predicted.(vi) in
          if Avp_hdl.Sliced.check_net sim id ~mask:(1 lsl slot) ~predicted:p = 0
          then net (vi + 1)
          else begin
            failures.(t) <-
              Some
                (match
                   Translate.value_of_bv
                     (Avp_hdl.Sliced.get_lane sim ~lane:slot id)
                 with
                 | actual ->
                   Format.asprintf "%a" pp_mismatch
                     { trace = t; cycle; net = nets.(vi); actual;
                       predicted = p }
                 | exception Translate.Unsupported msg -> msg);
            Avp_hdl.Sliced.freeze sim ~mask:(1 lsl slot)
          end
        end
      in
      net 0
    in
    match
      let ids =
        Array.map (fun nm -> (Avp_hdl.Elab.net dut nm).Avp_hdl.Elab.id) nets
      in
      Slots.run sim tr ~width:1 vectors
        ~on_reset:(fun ~slot t -> check ids ~slot t (-1))
        ~on_cycle:(fun ~slot t i -> check ids ~slot t i)
    with
    | exception _ -> None
    | () ->
      let rec first t =
        if t = n then
          let count c v = c + Array.length v in
          Ok { traces = n; cycles = Array.fold_left count 0 vectors }
        else
          match failures.(t) with
          | Some detail -> Error (t, detail)
          | None -> first (t + 1)
      in
      Some (first 0))

let record_trace (tr : Translate.result) ~(nets : string array) ~trace
    (v : Vector.t) =
  let rows = Array.make_matrix (Array.length v + 1) (Array.length nets) 0 in
  let sim = Avp_hdl.Sim.create tr.Translate.elab in
  let snap row =
    Array.iteri
      (fun vi net ->
        let bv = Avp_hdl.Sim.get sim net in
        match Avp_logic.Bv.to_int bv with
        | Some x -> rows.(row).(vi) <- x
        | None ->
          raise
            (Translate.Unsupported
               (Printf.sprintf
                  "the pristine design drives output %s to %s %s of trace \
                   %d, but an output comparison needs a reference of at \
                   most %d defined bits"
                  net (Avp_logic.Bv.to_string bv)
                  (if row = 0 then "at reset release"
                   else Printf.sprintf "after cycle %d" (row - 1))
                  trace Avp_logic.Bv.packed_width_limit)))
      nets
  in
  Condition_map.apply v sim ~clock:tr.Translate.clock
    ~reset:tr.Translate.reset
    ~on_reset:(fun () -> snap 0)
    ~on_cycle:(fun i -> snap (i + 1));
  rows

(* Set by set, trace by trace, so the first undefined value raises. *)
let record (tr : Translate.result) ~(nets : string array)
    (sets : Vector.t array array) =
  Array.map (Array.mapi (fun trace -> record_trace tr ~nets ~trace)) sets

let check_nets ~dut (tr : Translate.result) ~(nets : string array)
    ~(predicted : int array array array) (vectors : Vector.t array) =
  let n = Array.length vectors in
  replay_all ~n (fun ti ->
      let rows = predicted.(ti) in
      let predict cycle vi = rows.(cycle + 1).(vi) in
      run_nets ~design:dut ~tr ~nets ~predict ti vectors.(ti))

(* Replay one trace's vectors with a VCD dump attached: the waveform
   artifact behind the CLI's [--vcd], showing state nets toggling
   under annotated force/release stimulus. *)
let dump_vcd (tr : Translate.result) (vector : Vector.t) =
  (* Clock, reset, the annotated state nets, then every net the vectors
     touch — deduplicated, first occurrence wins. *)
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
    (tr.Translate.clock :: tr.Translate.reset :: Array.to_list (state_nets tr))
    @ List.rev !forced
  in
  let seen = Hashtbl.create 16 in
  let nets =
    List.filter
      (fun n ->
        if Hashtbl.mem seen n then false
        else begin
          Hashtbl.add seen n ();
          true
        end)
      candidates
  in
  let sim = Avp_hdl.Sim.create tr.Translate.elab in
  let vcd = Avp_hdl.Vcd.attach sim ~nets in
  Condition_map.apply vector sim ~clock:tr.Translate.clock
    ~reset:tr.Translate.reset
    ~on_cycle:(fun _ -> ());
  Avp_hdl.Vcd.detach vcd;
  Avp_hdl.Vcd.serialize ~top:tr.Translate.model.Model.model_name vcd
