(* Telemetry overhead smoke check.

     dune exec bench/overhead_check.exe

   Interleaves tracer-off and tracer-on runs of the two hot paths the
   instrumentation touches — state enumeration (per-level spans,
   end-of-run counters) and raw stepping of the production simulation
   kernel, a 62-lane bit-sliced one (the sim.steps and sim.lanes
   counters) — and fails if the enabled/disabled ratio exceeds a
   generous bound.  This is not a precision benchmark: the bound is
   loose enough to ride out scheduler noise and exists to catch an
   accidental per-state or per-event allocation creeping into the
   disabled path (which must stay one load + branch) or an
   instrumentation point moving into an inner loop. *)

open Avp_enum
module Obs = Avp_obs.Obs

let rounds = 5
let max_ratio = 1.5

let enum_once model =
  let t = Obs.Timer.start () in
  ignore (State_graph.enumerate model);
  Obs.Timer.elapsed_s t

let sim_once sim clk ~cycles =
  let t = Obs.Timer.start () in
  for _ = 1 to cycles do
    Avp_hdl.Sliced.step sim clk
  done;
  Obs.Timer.elapsed_s t

let traced ?gc f =
  let t = Obs.create ?gc () in
  Obs.with_tracer t f

let check ?gc name f =
  ignore (f ());          (* warmup, both paths cold-started once *)
  ignore (traced ?gc f);
  let off = ref 0.0 and on_ = ref 0.0 in
  for _ = 1 to rounds do
    off := !off +. f ();
    on_ := !on_ +. traced ?gc f
  done;
  let ratio = !on_ /. !off in
  Printf.printf "%-8s off %.3fs  on %.3fs  ratio %.2f\n" name !off !on_
    ratio;
  ratio

let () =
  let model = Avp_pp.Control_model.(model default) in
  let design = Avp_pp.Control_hdl.elaborate () in
  let sim =
    match
      Avp_hdl.Sliced.create ~lanes:Avp_logic.Bv_sliced.lanes_limit design
    with
    | Some sim -> sim
    | None -> failwith "the sliced kernel rejects the control design"
  in
  let clk = (Avp_hdl.Elab.net design "clk").Avp_hdl.Elab.id in
  let r1 = check "enum" (fun () -> enum_once model) in
  let r2 = check "sim" (fun () -> sim_once sim clk ~cycles:20_000) in
  (* Profiling mode (gc sampling on every span) rides the same gate:
     Gc.quick_stat per span must stay off the per-state/per-cycle hot
     paths, so its ratio obeys the same bound as plain tracing. *)
  let r3 = check ~gc:true "enum+gc" (fun () -> enum_once model) in
  if r1 > max_ratio || r2 > max_ratio || r3 > max_ratio then begin
    Printf.eprintf "FAIL: telemetry overhead ratio above %.1f\n" max_ratio;
    exit 1
  end;
  print_endline "overhead check OK"
