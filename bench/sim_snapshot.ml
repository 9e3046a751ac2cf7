(* Machine-readable simulation performance snapshot.

     dune exec bench/sim_snapshot.exe [-- OUT.json]

   Three measurements over the PP control HDL (the paper's annotated
   Verilog control section):

   - raw simulation throughput: the same pseudo-random stimulus is
     clocked through the tree-walking interpreter and the compiled
     bytecode kernel, cross-checking the visible outputs cycle by
     cycle, and cycles/s for each engine plus the compiled/interp
     ratio are recorded;

   - campaign replay throughput: tour-generated vectors are replayed
     against the design on 1, 2 and 4 domains (one simulator per
     domain), recording vectors/s and the speedup over one domain;

   - bit-sliced throughput: the same stimulus broadcast through a
     62-lane sliced kernel (lane 0 cross-checked against the scalar
     engines), recording word cycles/s and effective lane-cycles/s.

   AVP_SIM_CYCLES overrides the raw-throughput cycle count;
   AVP_BENCH_TRACE=FILE records a telemetry trace of the measured
   runs. *)

open Avp_hdl
open Avp_enum
module Obs = Avp_obs.Obs

let with_bench_trace f =
  match Sys.getenv_opt "AVP_BENCH_TRACE" with
  | None -> f ()
  | Some path ->
    let t = Obs.create () in
    let r = Obs.with_tracer t f in
    Obs.write_trace t path;
    Printf.printf "wrote trace %s\n" path;
    r

(* Deterministic 48-bit LCG so both engines see identical stimulus. *)
let lcg = ref 0x5DEECE66D

let rand_bits n =
  lcg := ((!lcg * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  (!lcg lsr 20) land ((1 lsl n) - 1)

let free_inputs =
  [
    ("i_hit", 1);
    ("d_hit", 1);
    ("instr", 3);
    ("inbox_rdy", 1);
    ("outbox_rdy", 1);
    ("mem_adv", 1);
    ("dirty", 1);
    ("same_line", 1);
  ]

let bv1 v = Avp_logic.Bv.of_int ~width:1 v

(* Clock [cycles] edges of pseudo-random stimulus through [sim],
   returning elapsed seconds and the per-cycle trace of the three
   visible outputs (for cross-checking the engines).  Inputs go in
   through [poke_id] and one [step] per cycle — the same batch-poke
   pattern the vector drivers use. *)
let drive design sim ~cycles =
  lcg := 0x5DEECE66D;
  let uid name = Hashtbl.find design.Elab.by_name name in
  let inputs = List.map (fun (name, w) -> (uid name, w)) free_inputs in
  let out_ids = List.map uid [ "stall"; "dstall_out"; "istall_out" ] in
  Sim.set sim "rst" (bv1 1);
  Sim.step sim "clk";
  Sim.step sim "clk";
  Sim.set sim "rst" (bv1 0);
  let trace = Bytes.create cycles in
  let timer = Obs.Timer.start () in
  for i = 0 to cycles - 1 do
    List.iter
      (fun (id, w) ->
        Sim.poke_id sim id (Avp_logic.Bv.of_int ~width:w (rand_bits w)))
      inputs;
    Sim.step sim "clk";
    let byte =
      List.fold_left
        (fun acc id ->
          (acc lsl 2)
          lor
          match Avp_logic.Bv.to_int (Sim.get_id sim id) with
          | Some v -> v
          | None -> 2)
        0 out_ids
    in
    Bytes.set trace i (Char.chr byte)
  done;
  (Obs.Timer.elapsed_s timer, trace)

let () =
  let out =
    match Array.to_list Sys.argv with
    | [ _ ] -> "BENCH_sim.json"
    | [ _; path ] -> path
    | _ ->
      prerr_endline "usage: sim_snapshot.exe [OUT.json]";
      exit 1
  in
  let cycles =
    match Sys.getenv_opt "AVP_SIM_CYCLES" with
    | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n
                 | _ -> 50_000)
    | None -> 50_000
  in
  let cores = Domain.recommended_domain_count () in
  with_bench_trace @@ fun () ->
  let design = Avp_pp.Control_hdl.elaborate () in
  (* Raw engine throughput, identical stimulus, outputs cross-checked. *)
  let interp = Sim.create ~engine:`Interp design in
  let compiled = Sim.create ~engine:`Compiled design in
  (match Sim.engine compiled with
   | `Compiled -> ()
   | `Interp ->
     prerr_endline "FATAL: compiled engine rejected the control design";
     exit 1);
  let interp_s, trace_i = drive design interp ~cycles in
  let compiled_s, trace_c = drive design compiled ~cycles in
  if not (Bytes.equal trace_i trace_c) then begin
    prerr_endline "FATAL: engines diverged on the control design";
    exit 1
  end;
  let interp_cps = float_of_int cycles /. interp_s in
  let compiled_cps = float_of_int cycles /. compiled_s in
  let ratio = compiled_cps /. interp_cps in
  (* Bit-sliced kernel: identical stimulus broadcast to all 62 lanes;
     lane 0 must reproduce the scalar output trace bit for bit. *)
  let sliced_lanes = Avp_logic.Bv_sliced.lanes_limit in
  let sliced_s, lane_checked =
    match Sliced.create ~lanes:sliced_lanes design with
    | None ->
      prerr_endline "FATAL: sliced engine rejected the control design";
      exit 1
    | Some sl ->
      lcg := 0x5DEECE66D;
      let uid name = Hashtbl.find design.Elab.by_name name in
      let inputs = List.map (fun (name, w) -> (uid name, w)) free_inputs in
      let out_ids = List.map uid [ "stall"; "dstall_out"; "istall_out" ] in
      let clk = uid "clk" and rst = uid "rst" in
      Sliced.set_id sl rst (bv1 1);
      Sliced.step sl clk;
      Sliced.step sl clk;
      Sliced.set_id sl rst (bv1 0);
      let trace = Bytes.create cycles in
      let timer = Obs.Timer.start () in
      for i = 0 to cycles - 1 do
        List.iter
          (fun (id, w) ->
            Sliced.poke_id sl id (Avp_logic.Bv.of_int ~width:w (rand_bits w)))
          inputs;
        Sliced.step sl clk;
        let byte =
          List.fold_left
            (fun acc id ->
              (acc lsl 2)
              lor
              match Avp_logic.Bv.to_int (Sliced.get_lane sl ~lane:0 id) with
              | Some v -> v
              | None -> 2)
            0 out_ids
        in
        Bytes.set trace i (Char.chr byte)
      done;
      (Obs.Timer.elapsed_s timer, Bytes.equal trace trace_c)
  in
  if not lane_checked then begin
    prerr_endline "FATAL: sliced lane 0 diverged from the compiled engine";
    exit 1
  end;
  let sliced_cps = float_of_int cycles /. sliced_s in
  let sliced_lane_cps = sliced_cps *. float_of_int sliced_lanes in
  (* Campaign replay: tour vectors over 1/2/4 domains. *)
  let tr = Avp_pp.Control_hdl.translate () in
  let graph = State_graph.enumerate tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  let replay domains =
    let timer = Obs.Timer.start () in
    match Avp_vectors.Replay.check ~domains tr graph tours with
    | Error m ->
      Format.eprintf "FATAL: replay mismatch: %a@."
        Avp_vectors.Replay.pp_mismatch m;
      exit 1
    | Ok stats ->
      let elapsed = Obs.Timer.elapsed_s timer in
      (stats.Avp_vectors.Replay.cycles, elapsed)
  in
  let base_cycles, base_s = replay 1 in
  let runs =
    List.map
      (fun d ->
        let c, s = if d = 1 then (base_cycles, base_s) else replay d in
        (d, c, s, float_of_int c /. s, base_s /. s))
      [ 1; 2; 4 ]
  in
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"design\": \"pp_control\",\n";
  p "  \"provenance\": %s,\n" (History.provenance_string ());
  p "  \"cores\": %d,\n" cores;
  p "  \"cycles\": %d,\n" cycles;
  p "  \"interp_cycles_per_s\": %.1f,\n" interp_cps;
  p "  \"compiled_cycles_per_s\": %.1f,\n" compiled_cps;
  p "  \"compiled_over_interp\": %.2f,\n" ratio;
  p "  \"sliced\": {\"lanes\": %d, \"cycles_per_s\": %.1f, \
     \"lane_cycles_per_s\": %.1f, \"lane_cycles_over_compiled\": %.2f},\n"
    sliced_lanes sliced_cps sliced_lane_cps (sliced_lane_cps /. compiled_cps);
  p "  \"replay\": [\n";
  List.iteri
    (fun i (d, c, s, vps, speedup) ->
      p
        "    {\"domains\": %d, \"vectors\": %d, \"elapsed_s\": %.4f, \
         \"vectors_per_s\": %.1f, \"speedup\": %.3f}%s\n"
        d c s vps speedup
        (if i = 2 then "" else ","))
    runs;
  p "  ]\n";
  p "}\n";
  close_out oc;
  History.append ~bench:"sim" ~preset:"pp_control"
    [
      ("interp_cycles_per_s", interp_cps);
      ("compiled_cycles_per_s", compiled_cps);
      ("sliced_lane_cycles_per_s", sliced_lane_cps);
    ];
  Printf.printf "wrote %s (%d cores):\n" out cores;
  Printf.printf "  interp   %.0f cycles/s\n" interp_cps;
  Printf.printf "  compiled %.0f cycles/s  (%.2fx)\n" compiled_cps ratio;
  Printf.printf
    "  sliced   %.0f cycles/s x %d lanes = %.0f lane-cycles/s  (%.2fx \
     compiled)\n"
    sliced_cps sliced_lanes sliced_lane_cps
    (sliced_lane_cps /. compiled_cps);
  List.iter
    (fun (d, c, s, vps, speedup) ->
      Printf.printf
        "  replay domains=%d  %d vectors  %.3fs  %.0f vectors/s  \
         speedup %.2fx\n"
        d c s vps speedup)
    runs
