(* The three-method generator comparison: schema stability of the
   tour / random / fuzz report, the competitive claim (fuzz kill-rate
   at least the size-matched random baseline's at equal generation
   budget), the golden Report fuzz section, and determinism of the
   instruction-level fuzzer behind `avp validate --fuzz`. *)

module Loop = Avp_fuzz.Loop
module Compare = Avp_fuzz.Compare
module Isa_fuzz = Avp_fuzz.Isa_fuzz
module Report = Avp_obs.Report

let inputs =
  lazy
    (let design = Avp_pp.Control_hdl.parse () in
     let tr = Avp_fsm.Translate.translate (Avp_hdl.Elab.elaborate design) in
     let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
     let tours = Avp_tour.Tour_gen.generate graph in
     let config = { Loop.default_config with Loop.budget = 128 } in
     (design, tr, graph, tours, Loop.run ~config tr graph))

(* A sampled mutant population keeps the test quick; the bench
   snapshot runs the exhaustive one. *)
let score fuzz =
  let design, tr, graph, tours, _ = Lazy.force inputs in
  Compare.run ~seed:0 ~mutant_budget:48 ~design ~tr ~graph ~tours ~fuzz ()

let comparison =
  lazy
    (let _, _, _, _, fuzz = Lazy.force inputs in
     (fuzz, score fuzz))

let stats name =
  let _, cmp = Lazy.force comparison in
  match Compare.find_method cmp name with
  | Some s -> s
  | None -> Alcotest.failf "method %s missing from the comparison" name

(* {2 Schema stability} *)

let test_method_order () =
  let _, cmp = Lazy.force comparison in
  Alcotest.(check (list string))
    "methods in canonical order"
    [ "tour"; "random"; "fuzz" ]
    (List.map (fun m -> m.Compare.m_name) cmp.Compare.c_methods);
  Alcotest.(check (list string))
    "missed lists cover every method"
    [ "tour"; "random"; "fuzz" ]
    (List.map fst cmp.Compare.c_missed)

let test_population_accounting () =
  let _, cmp = Lazy.force comparison in
  Alcotest.(check bool) "vetted bounded" true
    (cmp.Compare.c_vetted <= cmp.Compare.c_mutants);
  Alcotest.(check int) "candidates = vetted - equivalent"
    (cmp.Compare.c_vetted - cmp.Compare.c_equivalent)
    cmp.Compare.c_candidates;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Compare.m_name ^ " kills within candidates")
        true
        (m.Compare.m_killed >= 0
        && m.Compare.m_killed <= cmp.Compare.c_candidates);
      Alcotest.(check bool)
        (m.Compare.m_name ^ " rate in [0,1]")
        true
        (m.Compare.m_rate >= 0.0 && m.Compare.m_rate <= 1.0);
      Alcotest.(check int)
        (m.Compare.m_name ^ " missed count matches kills")
        (cmp.Compare.c_candidates - m.Compare.m_killed)
        (List.length (List.assoc m.Compare.m_name cmp.Compare.c_missed)))
    cmp.Compare.c_methods

(* The fairness protocol in numbers: random is size-matched to the
   fuzzer's full exploration budget, fuzz replays only its distilled
   corpus. *)
let test_fairness_protocol () =
  let fuzz, _ = Lazy.force comparison in
  let r = stats "random" and f = stats "fuzz" in
  Alcotest.(check int) "one random walk per executed candidate"
    fuzz.Loop.executed r.Compare.m_entries;
  Alcotest.(check int) "random replays everything it generated"
    r.Compare.m_gen_cycles r.Compare.m_cycles;
  Alcotest.(check int) "random budget = fuzz exploration budget"
    fuzz.Loop.explore_cycles r.Compare.m_gen_cycles;
  Alcotest.(check int) "fuzz pays its full exploration budget"
    fuzz.Loop.explore_cycles f.Compare.m_gen_cycles;
  Alcotest.(check int) "fuzz replays only the corpus"
    (Array.length fuzz.Loop.kept)
    f.Compare.m_entries;
  Alcotest.(check bool) "corpus replay is cheaper than generation" true
    (f.Compare.m_cycles <= f.Compare.m_gen_cycles)

(* Kill scoring runs on the fuzz run's engine: the sliced schemata
   passes must score exactly as the scalar per-mutant replays. *)
let test_engine_invariant () =
  let _, _, _, _, fuzz = Lazy.force inputs in
  let on engine =
    Avp_obs.Json.to_string
      (Compare.json_value
         (score
            { fuzz with Loop.config = { fuzz.Loop.config with Loop.engine } }))
  in
  Alcotest.(check string) "sliced comparison = scalar comparison"
    (on `Scalar) (on `Sliced)

(* {2 The competitive claim} *)

let test_fuzz_beats_random () =
  let r = stats "random" and f = stats "fuzz" in
  Alcotest.(check bool)
    (Printf.sprintf "fuzz arcs %d >= random arcs %d" f.Compare.m_arcs
       r.Compare.m_arcs)
    true
    (f.Compare.m_arcs >= r.Compare.m_arcs);
  Alcotest.(check bool)
    (Printf.sprintf "fuzz kill-rate %.3f >= random %.3f" f.Compare.m_rate
       r.Compare.m_rate)
    true
    (f.Compare.m_rate >= r.Compare.m_rate)

(* {2 Golden Report section} *)

let test_report_section () =
  let fuzz, cmp = Lazy.force comparison in
  let section = Compare.report_section fuzz cmp in
  let report =
    {
      (Report.empty ~title:"campaign3 golden" ~design:"pp_control") with
      Report.fuzz = Some section;
    }
  in
  let json = Report.to_json report in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" key) true
        (Str_replace.contains json ("\"" ^ key ^ "\"")))
    [
      "fuzz"; "seed"; "budget"; "rounds"; "executed"; "corpus";
      "explore_cycles"; "arcs_total"; "candidates"; "methods"; "method";
      "entries"; "cycles"; "gen_cycles"; "states"; "arcs"; "pairs";
      "killed"; "rate"; "mean_vectors_to_kill";
    ];
  Alcotest.(check int) "section carries all three methods" 3
    (List.length section.Report.fz_methods)

(* {2 Instruction-level fuzzer determinism} *)

let test_isa_fuzz_deterministic () =
  let cfg = Avp_pp.Control_model.default in
  let graph =
    Avp_enum.State_graph.enumerate (Avp_pp.Control_model.model cfg)
  in
  let config =
    { Isa_fuzz.default_config with Isa_fuzz.budget = 12; max_cycles = 2_000 }
  in
  let a = Isa_fuzz.run ~config cfg graph in
  let b = Isa_fuzz.run ~config cfg graph in
  Alcotest.(check int) "executed" a.Isa_fuzz.executed b.Isa_fuzz.executed;
  Alcotest.(check int) "instructions" a.Isa_fuzz.instructions
    b.Isa_fuzz.instructions;
  Alcotest.(check bool) "kept corpora identical" true
    (a.Isa_fuzz.kept = b.Isa_fuzz.kept);
  Alcotest.(check bool) "keeps something even at a tiny budget" true
    (Array.length a.Isa_fuzz.kept > 0);
  let stims = Isa_fuzz.stimuli a in
  Alcotest.(check int) "one stimulus per kept entry"
    (Array.length a.Isa_fuzz.kept)
    (List.length stims);
  List.iter
    (fun s ->
      let n = Array.length s.Avp_harness.Drive.program in
      Alcotest.(check bool) "program ends in Halt" true
        (n > 0 && s.Avp_harness.Drive.program.(n - 1) = Avp_pp.Isa.Halt))
    stims

let suite =
  [
    Alcotest.test_case "method order" `Quick test_method_order;
    Alcotest.test_case "population accounting" `Quick
      test_population_accounting;
    Alcotest.test_case "fairness protocol" `Quick test_fairness_protocol;
    Alcotest.test_case "kill scores invariant across engines" `Quick
      test_engine_invariant;
    Alcotest.test_case "fuzz beats random" `Quick test_fuzz_beats_random;
    Alcotest.test_case "report fuzz section" `Quick test_report_section;
    Alcotest.test_case "isa fuzz deterministic" `Quick
      test_isa_fuzz_deterministic;
  ]
