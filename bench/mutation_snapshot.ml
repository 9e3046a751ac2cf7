(* Machine-readable mutation-campaign snapshot.

     dune exec bench/mutation_snapshot.exe [-- OUT.json]

   Runs the full mutation kill campaign over the PP control HDL on
   BOTH engines — the scalar per-mutant replay and the bit-sliced
   mutant-schemata kernel — verifies their reports are byte-identical
   (the sliced engine is only a speedup, never a semantics change;
   any divergence is FATAL), and measures the equal-work replay
   throughput of the two: the full transition tour driven through
   every vetted mutant, 162 sequential scalar replays versus
   ceil(162/62) = 3 word-parallel schemata passes doing the same
   162 x tour-cycles of mutant simulation.  The wall-clock campaign
   rows additionally include the per-mutant oracle checks and the
   equivalence enumerations both engines share.

   The JSON wraps the (identical) campaign report under "report";
   the "replay_throughput" and "engines" blocks carry the timings.
   AVP_BENCH_TRACE=FILE records a telemetry trace of the sliced
   campaign (per-pass and per-mutant classification spans). *)

module Obs = Avp_obs.Obs
module Campaign = Avp_mutate.Campaign
module Translate = Avp_fsm.Translate
module Elab = Avp_hdl.Elab
module Vector = Avp_vectors.Vector

let with_bench_trace f =
  match Sys.getenv_opt "AVP_BENCH_TRACE" with
  | None -> f ()
  | Some path ->
    let t = Obs.create () in
    let r = Obs.with_tracer t f in
    Obs.write_trace t path;
    Printf.printf "wrote trace %s\n" path;
    r

let timed f =
  let t0 = Obs.Clock.now_s () in
  let r = f () in
  (r, Obs.Clock.now_s () -. t0)

(* Equal-work tour replay, scalar: every vetted mutant compiled and
   driven through the full tour stimulus, no checks — the simulation
   work a per-mutant campaign pays before any oracle looks at it. *)
let scalar_tour_replay ~(tr : Translate.result) ~tvecs cands =
  Array.iter
    (fun dut ->
      let tpl = Avp_hdl.Sim.template dut in
      Array.iter
        (fun vecs ->
          let sim = Avp_hdl.Sim.instantiate tpl in
          Avp_vectors.Condition_map.apply vecs sim ~clock:tr.Translate.clock
            ~reset:tr.Translate.reset
            ~on_cycle:(fun _ -> ()))
        tvecs)
    cands

(* Equal-work tour replay, sliced: the same mutants packed 62 to a
   word into schemata kernels, every lane live for the full tour —
   the ceil(N/62) word passes the batched campaign runs per trace. *)
let sliced_tour_replay ~base ~units ~(tr : Translate.result) ~tvecs cands =
  let module S = Avp_hdl.Sliced in
  let net_id nm = (Elab.net base nm).Elab.id in
  let clock = net_id tr.Translate.clock
  and reset = net_id tr.Translate.reset in
  let lookup =
    let tbl = Hashtbl.create 16 in
    fun nm ->
      match Hashtbl.find_opt tbl nm with
      | Some id -> id
      | None ->
        let id = net_id nm in
        Hashtbl.add tbl nm id;
        id
  in
  let one = Avp_logic.Bv.of_int ~width:1 1
  and zero = Avp_logic.Bv.of_int ~width:1 0 in
  let lanes = Avp_logic.Bv_sliced.lanes_limit in
  let n = Array.length cands in
  let chunks = (n + lanes - 1) / lanes in
  for ci = 0 to chunks - 1 do
    let c0 = ci * lanes in
    let k = min lanes (n - c0) in
    match S.create_schemata ~u:units ~base (Array.sub cands c0 k) with
    | None ->
      prerr_endline "FATAL: schemata compilation failed on pp_control";
      exit 1
    | Some (sim, scheduled) ->
      if not (Array.for_all Fun.id scheduled) then begin
        prerr_endline
          "FATAL: unschedulable mutant lane — equal-work premise broken";
        exit 1
      end;
      Array.iter
        (fun vecs ->
          S.reinit sim;
          S.set_id sim reset one;
          S.step sim clock;
          S.set_id sim reset zero;
          Array.iter
            (fun { Vector.actions } ->
              List.iter
                (function
                  | Vector.Force (nm, v) -> S.force_id sim (lookup nm) v
                  | Vector.Release nm -> S.release_id sim (lookup nm))
                actions;
              S.step sim clock)
            vecs)
        tvecs
  done;
  chunks

let () =
  let out =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_mutation.json"
  in
  let design = Avp_pp.Control_hdl.parse () in
  let tr = Translate.translate (Elab.elaborate design) in
  let graph = Avp_enum.State_graph.enumerate tr.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  let domains = Avp_enum.Pool.default_domains () in
  let cores = Domain.recommended_domain_count () in
  (* Full campaign, both engines; the trace (if requested) watches the
     sliced one, whose report is the one embedded below. *)
  let scalar_report, scalar_s =
    timed (fun () ->
        Campaign.run ~seed:1 ~domains ~engine:`Scalar ~design ~tr ~graph
          ~tours ())
  in
  let sliced_report, sliced_s =
    with_bench_trace @@ fun () ->
    timed (fun () ->
        Campaign.run ~seed:1 ~domains ~engine:`Sliced ~design ~tr ~graph
          ~tours ())
  in
  let report_json = Campaign.to_json sliced_report in
  if Campaign.to_json scalar_report <> report_json then begin
    prerr_endline "FATAL: scalar and sliced campaign classifications differ";
    exit 1
  end;
  (* Equal-work replay throughput: the vetted mutants' full-tour
     simulation, 162 scalar replays vs 3 word-parallel passes. *)
  let tvecs = Avp_vectors.Replay.vectors tr tours in
  let tour_cycles =
    Array.fold_left (fun acc v -> acc + Array.length v) 0 tvecs
  in
  let cands =
    Avp_mutate.Gen.all design
    |> List.filter_map (fun m ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Ok dut -> Some dut
        | `Stillborn _ | `Static _ -> None)
    |> Array.of_list
  in
  let nmut = Array.length cands in
  let (), scalar_replay_s =
    timed (fun () -> scalar_tour_replay ~tr ~tvecs cands)
  in
  let base = Elab.elaborate design in
  let units = Avp_hdl.Compile.units base in
  let word_passes, sliced_replay_s =
    timed (fun () -> sliced_tour_replay ~base ~units ~tr ~tvecs cands)
  in
  let mutant_cycles = nmut * tour_cycles in
  let cps s = float_of_int mutant_cycles /. s in
  let oc = open_out out in
  let p fmt = Printf.ksprintf (output_string oc) fmt in
  p "{\n";
  p "  \"design\": \"%s\",\n" sliced_report.Campaign.design;
  p "  \"provenance\": %s,\n" (History.provenance_string ());
  p "  \"cores\": %d,\n" cores;
  p "  \"domains\": %d,\n" domains;
  p "  \"lanes\": %d,\n" Avp_logic.Bv_sliced.lanes_limit;
  p "  \"classifications_identical\": true,\n";
  p "  \"engines\": {\n";
  p "    \"scalar\": {\"campaign_s\": %.3f},\n" scalar_s;
  p "    \"sliced\": {\"campaign_s\": %.3f, \"speedup\": %.2f}\n" sliced_s
    (scalar_s /. sliced_s);
  p "  },\n";
  p "  \"replay_throughput\": {\n";
  p "    \"mutants\": %d,\n" nmut;
  p "    \"traces\": %d,\n" (Array.length tvecs);
  p "    \"tour_cycles\": %d,\n" tour_cycles;
  p "    \"mutant_cycles\": %d,\n" mutant_cycles;
  p "    \"word_passes\": %d,\n" word_passes;
  p "    \"scalar_s\": %.3f,\n" scalar_replay_s;
  p "    \"sliced_s\": %.3f,\n" sliced_replay_s;
  p "    \"scalar_mutant_cycles_per_s\": %.0f,\n" (cps scalar_replay_s);
  p "    \"sliced_mutant_cycles_per_s\": %.0f,\n" (cps sliced_replay_s);
  p "    \"speedup\": %.2f\n" (scalar_replay_s /. sliced_replay_s);
  p "  },\n";
  p "  \"report\": %s" (String.trim report_json);
  p "\n}\n";
  close_out oc;
  History.append ~bench:"mutation" ~preset:"pp_control"
    [
      ("mutants", float_of_int nmut);
      ("tour_cycles", float_of_int tour_cycles);
      ("campaign_speedup", scalar_s /. sliced_s);
      ("sliced_mutant_cycles_per_s", cps sliced_replay_s);
      ("replay_speedup", scalar_replay_s /. sliced_replay_s);
    ];
  Format.printf "%a" Campaign.pp_report sliced_report;
  Printf.printf
    "campaign: scalar %.3fs, sliced %.3fs (%.2fx); equal-work tour replay: \
     %d mutants x %d cycles, scalar %.3fs vs %d word passes %.3fs (%.2fx)\n"
    scalar_s sliced_s (scalar_s /. sliced_s) nmut tour_cycles scalar_replay_s
    word_passes sliced_replay_s
    (scalar_replay_s /. sliced_replay_s);
  Printf.printf "wrote %s\n" out
