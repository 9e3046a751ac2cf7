(* Machine-readable fuzzing snapshot.

     dune exec bench/fuzz_snapshot.exe [-- OUT.json]

   Runs the coverage-guided fuzzing loop over the PP control HDL at
   the default configuration (seed 0, budget 512) on BOTH engines —
   compiled scalar and bit-sliced lane-parallel candidate evaluation
   — verifies the two runs produce byte-identical corpora and
   coverage (the engine choice is only a speedup, never a semantics
   change; any divergence is FATAL), then scores the distilled corpus
   against transition tours and a size-matched pure-random baseline
   on the vetted mutant population.

   The gate the CI job relies on: the fuzz corpus must reach at
   least the random baseline's arc coverage and kill count at equal
   generation budget — exit 1 otherwise.

   The JSON wraps the deterministic run-and-comparison record under
   "report" (same shape as `avp fuzz --json`); the "engines" block
   carries the wall-clock timings, which are the only nondeterminism
   in the file.  AVP_BENCH_TRACE=FILE records a telemetry trace of
   the sliced run (per-round, per-candidate, and per-mutant kill
   spans). *)

module Obs = Avp_obs.Obs
module J = Avp_obs.Json
module Coverage = Avp_obs.Coverage
module Loop = Avp_fuzz.Loop
module Compare = Avp_fuzz.Compare
module Translate = Avp_fsm.Translate
module Elab = Avp_hdl.Elab

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

(* The deterministic record of a run: config, corpus growth, final
   coverage — no engine, domain count, or timing.  This is both the
   cross-engine identity check and the "report" payload. *)
let result_json (r : Loop.result) cmp =
  let cov = Coverage.summary r.Loop.coverage in
  let kept_json =
    Array.to_list
      (Array.map
         (fun (k : Loop.kept) ->
           J.Obj
             [
               ("round", J.Int k.Loop.round);
               ("length", J.Int (Array.length k.Loop.entry));
               ( "gain",
                 J.Obj
                   [
                     ("states", J.Int k.Loop.gain.Coverage.c_states);
                     ("arcs", J.Int k.Loop.gain.Coverage.c_arcs);
                     ("pairs", J.Int k.Loop.gain.Coverage.c_pairs);
                   ] );
             ])
         r.Loop.kept)
  in
  J.Obj
    ([
       ("design", J.Str r.Loop.design);
       ("seed", J.Int r.Loop.config.Loop.seed);
       ("budget", J.Int r.Loop.config.Loop.budget);
       ("batch", J.Int r.Loop.config.Loop.batch);
       ("rounds", J.Int r.Loop.rounds);
       ("executed", J.Int r.Loop.executed);
       ("corpus", J.Int (Array.length r.Loop.kept));
       ("explore_cycles", J.Int r.Loop.explore_cycles);
       ( "coverage",
         J.Obj
           [
             ("states", J.Int cov.Coverage.states_seen);
             ("states_total", J.Int cov.Coverage.states_total);
             ("arcs", J.Int cov.Coverage.arcs_seen);
             ("arcs_total", J.Int cov.Coverage.arcs_total);
             ("pairs", J.Int (Coverage.pairs_seen r.Loop.coverage));
             ("unmapped", J.Int cov.Coverage.unmapped);
           ] );
       ("kept", J.List kept_json);
     ]
    @ match cmp with None -> [] | Some c -> [ ("compare", Compare.json_value c) ])

let () =
  let out =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_fuzz.json"
  in
  let design = Avp_pp.Control_hdl.parse () in
  let tr = Translate.translate (Elab.elaborate design) in
  let graph = Avp_enum.State_graph.enumerate tr.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  let domains = Avp_enum.Pool.default_domains () in
  let cores = Domain.recommended_domain_count () in
  let config engine = { Loop.default_config with Loop.engine; domains } in
  (* Both engines at the default seed/budget; the trace (if
     requested) watches the sliced one, whose result feeds the
     comparison below. *)
  let scalar_result, scalar_s =
    timed (fun () -> Loop.run ~config:(config `Scalar) tr graph)
  in
  let sliced_result, sliced_s =
    with_bench_trace @@ fun () ->
    timed (fun () -> Loop.run ~config:(config `Sliced) tr graph)
  in
  if
    J.to_string (result_json scalar_result None)
    <> J.to_string (result_json sliced_result None)
  then begin
    prerr_endline "FATAL: scalar and sliced fuzzing runs diverged";
    exit 1
  end;
  (* The three-generator kill comparison, once, against the sliced
     run's corpus. *)
  let cmp, compare_s =
    timed (fun () ->
        Compare.run ~seed:sliced_result.Loop.config.Loop.seed ~domains ~design
          ~tr ~graph ~tours ~fuzz:sliced_result ())
  in
  let report = result_json sliced_result (Some cmp) in
  let oc = open_out out in
  let p fmt = Printf.ksprintf (output_string oc) fmt in
  p "{\n";
  p "  \"design\": \"%s\",\n" sliced_result.Loop.design;
  p "  \"provenance\": %s,\n" (History.provenance_string ());
  p "  \"cores\": %d,\n" cores;
  p "  \"domains\": %d,\n" domains;
  p "  \"lanes\": %d,\n" Avp_logic.Bv_sliced.lanes_limit;
  p "  \"results_identical\": true,\n";
  p "  \"engines\": {\n";
  p "    \"scalar\": {\"fuzz_s\": %.3f},\n" scalar_s;
  p "    \"sliced\": {\"fuzz_s\": %.3f, \"speedup\": %.2f}\n" sliced_s
    (scalar_s /. sliced_s);
  p "  },\n";
  p "  \"compare_s\": %.3f,\n" compare_s;
  p "  \"report\": %s" (J.to_string_pretty report);
  p "\n}\n";
  close_out oc;
  (match
     (Compare.find_method cmp "fuzz", Compare.find_method cmp "random")
   with
  | Some f, Some r ->
    History.append ~bench:"fuzz" ~preset:"pp_control"
      [
        ("fuzz_arcs", float_of_int f.Compare.m_arcs);
        ("fuzz_killed", float_of_int f.Compare.m_killed);
        ("random_arcs", float_of_int r.Compare.m_arcs);
        ("random_killed", float_of_int r.Compare.m_killed);
        ("engine_speedup", scalar_s /. sliced_s);
      ]
  | _ -> ());
  Format.printf "%a" Compare.pp cmp;
  Printf.printf
    "fuzz: scalar %.3fs, sliced %.3fs (%.2fx); comparison %.3fs\n" scalar_s
    sliced_s (scalar_s /. sliced_s) compare_s;
  Printf.printf "wrote %s\n" out;
  (* The CI gate: feedback must not lose to blind sampling. *)
  match (Compare.find_method cmp "fuzz", Compare.find_method cmp "random") with
  | Some f, Some r ->
    if f.Compare.m_arcs < r.Compare.m_arcs then begin
      Printf.eprintf "GATE FAILED: fuzz arcs %d < random arcs %d\n"
        f.Compare.m_arcs r.Compare.m_arcs;
      exit 1
    end;
    if f.Compare.m_killed < r.Compare.m_killed then begin
      Printf.eprintf "GATE FAILED: fuzz kills %d < random kills %d\n"
        f.Compare.m_killed r.Compare.m_killed;
      exit 1
    end
  | _ ->
    prerr_endline "GATE FAILED: comparison missing a method";
    exit 1
