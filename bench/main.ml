(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe table-3.2    -- one item
     dune exec bench/main.exe micro        -- bechamel microbenchmarks

   AVP_LARGE=1 additionally runs the large control-model preset for
   Tables 3.2 and 3.3 (about 3 minutes of CPU, and up to 4 GB of memory
   for Table 3.3; the paper's own enumeration took 18,307 DecStation
   seconds). *)

open Avp_pp
open Avp_fsm
open Avp_enum
open Avp_tour
open Avp_harness

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n")

let want_large () = Sys.getenv_opt "AVP_LARGE" = Some "1"

(* Shared artefacts, built lazily so single-table runs stay fast. *)

let default_cfg = Control_model.default

let default_graph =
  lazy (State_graph.enumerate (Control_model.model default_cfg))

let large_graph =
  lazy (State_graph.enumerate (Control_model.model Control_model.large))

(* A preset's own instruction count per arc of its enumerated graph. *)
let weigh cfg (graph : State_graph.t) ~src ~choice =
  Control_model.instructions_of_edge cfg
    ~src:graph.State_graph.states.(src)
    ~choice:(Model.choice_of_index graph.State_graph.model choice)

let default_tours ?instr_limit () =
  let graph = Lazy.force default_graph in
  Tour_gen.generate ?instr_limit
    ~instructions_of_edge:(weigh default_cfg graph)
    graph

(* ------------------------------------------------------------------ *)
(* Table 1.1 — MIPS R4000 errata classification                       *)
(* ------------------------------------------------------------------ *)

let table_1_1 () =
  section "Table 1.1: Classification of MIPS R4000 Errata";
  Printf.printf "%-34s %8s %10s   (paper)\n" "Bug Class" "Bugs" "% of Total";
  let paper = [ (3, 6.5); (17, 37.0); (26, 56.5); (46, 100.0) ] in
  List.iter2
    (fun (r : Avp_errata.Errata.row) (pb, ppct) ->
      Printf.printf "%-34s %8d %9.1f%%   (%d, %.1f%%)\n"
        r.Avp_errata.Errata.label r.Avp_errata.Errata.bugs
        r.Avp_errata.Errata.percent pb ppct)
    (Avp_errata.Errata.table ()) paper

(* ------------------------------------------------------------------ *)
(* Table 2.1 — bugs found by generated vectors                        *)
(* ------------------------------------------------------------------ *)

let table_2_1 () =
  section "Table 2.1: Synopsis of Discovered Bugs";
  note "Each Table 2.1 bug is injected into the RTL and attacked with the";
  note "three generation methods (equal instruction budgets).";
  let graph = Lazy.force default_graph in
  let tours = default_tours ~instr_limit:500 () in
  let rows = Campaign.table_2_1 ~cfg:default_cfg ~graph ~tours () in
  Printf.printf "\n%-8s %-28s %-26s %-24s\n" "Bug" "generated vectors"
    "random vectors" "directed tests";
  let cell (r : Campaign.method_result) =
    if r.Campaign.detected then
      Printf.sprintf "found (run %d, %d instr)" r.Campaign.runs
        r.Campaign.instructions
    else "NOT FOUND"
  in
  List.iter
    (fun (row : Campaign.bug_row) ->
      Printf.printf "%-8s %-28s %-26s %-24s\n"
        (Printf.sprintf "Bug #%d" (Bugs.number row.Campaign.bug))
        (cell row.Campaign.generated)
        (cell row.Campaign.random)
        (cell row.Campaign.directed))
    rows;
  Printf.printf "\n";
  List.iter
    (fun id ->
      Printf.printf "Bug #%d: %s\n  trigger: %s\n" (Bugs.number id)
        (Bugs.summary id) (Bugs.trigger id))
    Bugs.all_ids

(* ------------------------------------------------------------------ *)
(* Figures 2.2 / 2.3 — Bug #5 timing diagrams                         *)
(* ------------------------------------------------------------------ *)

let bug5_waveform ~external_stall =
  let program =
    [| Isa.Lw (2, 0, 40); Isa.Lw (3, 0, 41); Isa.Send 2; Isa.Halt |]
  in
  let ready c = if external_stall then (true, c > 30) else (true, true) in
  let config = { Rtl.default_config with Rtl.bugs = Bugs.only Bugs.Bug5 } in
  let rtl =
    Rtl.create ~config
      ~mem_init:[ (40, 0x0da1); (41, 0x0da2) ]
      ~program ~inbox:[] ()
  in
  Rtl.set_tracing rtl true;
  Rtl.run ~max_cycles:60 ~ready rtl;
  (Wave.render_window ~before:2 ~after:6 (Rtl.probes rtl), Rtl.reg rtl 2)

let figure_2_2 () =
  section "Figure 2.2: Bug #5 timing (glitch masked, data re-written)";
  let wave, r2 = bug5_waveform ~external_stall:false in
  print_endline wave;
  note "r2 after the load: 0x%x (correct: the rewrite masked the glitch)" r2

let figure_2_3 () =
  section "Figure 2.3: Bug #5 timing (external stall in the window)";
  let wave, r2 = bug5_waveform ~external_stall:true in
  print_endline wave;
  note "r2 after the load: 0x%x (garbage: the external stall blocked the \
        rewrite)" r2

(* ------------------------------------------------------------------ *)
(* Table 3.1 — instruction classes                                    *)
(* ------------------------------------------------------------------ *)

let table_3_1 () =
  section "Table 3.1: PP Instruction Classes";
  List.iter
    (fun cls ->
      Printf.printf "%-8s %s\n" (Isa.class_name cls) (Isa.class_effect cls))
    Isa.all_classes

(* ------------------------------------------------------------------ *)
(* Figure 3.2 — FSM decomposition                                     *)
(* ------------------------------------------------------------------ *)

let figure_3_2 () =
  section "Figure 3.2: FSM representation of the PP control";
  let m = Control_model.model default_cfg in
  Printf.printf "State machines and abstract pipeline registers:\n";
  Array.iter
    (fun (v : Model.var) ->
      Printf.printf "  %-16s %d values: %s\n" v.Model.name (Model.card v)
        (String.concat "/" (Array.to_list v.Model.values)))
    m.Model.state_vars;
  Printf.printf "Abstract blocks (nondeterministic inputs):\n";
  Array.iter
    (fun (v : Model.var) ->
      Printf.printf "  %-16s %d values\n" v.Model.name (Model.card v))
    m.Model.choice_vars;
  let ctl, total = Control_hdl.line_stats () in
  note "HDL path: %d of %d non-blank Verilog lines inside control sections"
    ctl total;
  note "(the paper annotated 581 of 2727 lines)"

(* ------------------------------------------------------------------ *)
(* Table 3.2 — state enumeration statistics                           *)
(* ------------------------------------------------------------------ *)

let print_enum_stats name (g : State_graph.t) =
  let s = g.State_graph.stats in
  Printf.printf "%-28s %14s %14s\n" ("  [" ^ name ^ "]") "measured" "paper";
  let row label v p = Printf.printf "%-28s %14s %14s\n" label v p in
  row "Number of States" (string_of_int s.State_graph.num_states) "229,571";
  row "Number of bits per State"
    (string_of_int s.State_graph.state_bits)
    "98";
  row "Execution Time"
    (Printf.sprintf "%.2f s" s.State_graph.elapsed_s)
    "18,307 cpu s";
  row "Memory Requirement"
    (Printf.sprintf "%.1f MB" s.State_graph.heap_mb)
    "34 MB";
  row "Number of Edges" (string_of_int s.State_graph.num_edges) "1,172,848";
  row "Enumeration domains" (string_of_int s.State_graph.domains) "1";
  let upper = Model.num_states_upper_bound g.State_graph.model in
  note "  states / 2^bits = %.2e (the FSM interlock prunes the product)"
    (float_of_int s.State_graph.num_states /. upper)

(* Sequential vs parallel enumeration of the same model; the outputs
   are bit-identical, so only the wall clock differs. *)
let print_speedup name model =
  let seq = State_graph.enumerate ~domains:1 model in
  let domains = State_graph.default_domains () in
  if domains > 1 then begin
    let par = State_graph.enumerate ~domains model in
    assert (
      State_graph.num_states par = State_graph.num_states seq
      && State_graph.num_edges par = State_graph.num_edges seq);
    note "  [%s] sequential %.2fs, %d domains %.2fs: speedup %.2fx" name
      seq.State_graph.stats.State_graph.elapsed_s domains
      par.State_graph.stats.State_graph.elapsed_s
      (seq.State_graph.stats.State_graph.elapsed_s
      /. par.State_graph.stats.State_graph.elapsed_s)
  end
  else
    note "  [%s] sequential %.2fs (1 core available; set AVP_DOMAINS to \
          force parallel enumeration)" name
      seq.State_graph.stats.State_graph.elapsed_s

let table_3_2 () =
  section "Table 3.2: State Enumeration Statistics";
  print_enum_stats "default model" (Lazy.force default_graph);
  note "";
  print_speedup "default model" (Control_model.model default_cfg);
  if want_large () then begin
    note "";
    print_enum_stats "large model" (Lazy.force large_graph);
    print_speedup "large model" (Control_model.model Control_model.large)
  end
  else note "(set AVP_LARGE=1 for the paper-scale preset: ~150k states)"

(* ------------------------------------------------------------------ *)
(* Table 3.3 — test vector generation statistics                      *)
(* ------------------------------------------------------------------ *)

let print_tour_stats ~limit_label (s : Tour_gen.stats) paper =
  let p_traces, p_trav, p_instr, p_long = paper in
  Printf.printf "%-34s %14s %14s\n"
    ("  [" ^ limit_label ^ "]")
    "measured" "paper";
  let row label v p = Printf.printf "%-34s %14s %14s\n" label v p in
  row "Number of Traces" (string_of_int s.Tour_gen.num_traces) p_traces;
  row "Total edge traversals"
    (string_of_int s.Tour_gen.edge_traversals)
    p_trav;
  row "Total instructions generated"
    (string_of_int s.Tour_gen.instructions)
    p_instr;
  row "Generation time"
    (Printf.sprintf "%.3f s" s.Tour_gen.gen_time_s)
    "161k-193k cpu s";
  row "Longest single trace (edges)"
    (string_of_int s.Tour_gen.longest_trace_edges)
    p_long;
  row "Est. simulation time @100Hz"
    (Printf.sprintf "%.1f min"
       (float_of_int s.Tour_gen.edge_traversals /. 100. /. 60.))
    "58.9h / 24min"

let table_3_3 () =
  section "Table 3.3: Test Vector Generation Statistics";
  let no_limit = default_tours () in
  print_tour_stats ~limit_label:"no trace limit" no_limit.Tour_gen.stats
    ("1,296", "21,200,173", "8,521,468", "21,197,977");
  Printf.printf "\n";
  let limited = default_tours ~instr_limit:10_000 () in
  print_tour_stats ~limit_label:"10,000-instruction limit"
    limited.Tour_gen.stats
    ("1,296", "21,252,235", "8,557,660", "144,520");
  Printf.printf "\n";
  (* The paper's 10,000 limit is ~0.1%% of its unlimited longest trace;
     the default graph's longest trace is under 10,000 instructions,
     so a proportional limit (500) shows the same collapse. *)
  let limited500 = default_tours ~instr_limit:500 () in
  print_tour_stats ~limit_label:"500-instruction limit (proportional)"
    limited500.Tour_gen.stats
    ("-", "-", "-", "-");
  if want_large () then begin
    note "";
    note "  [medium model, where the paper's own 10,000 limit bites]";
    let cfg = Control_model.medium in
    let g = State_graph.enumerate (Control_model.model cfg) in
    let unlimited = Tour_gen.generate ~instructions_of_edge:(weigh cfg g) g in
    let limited =
      Tour_gen.generate ~instr_limit:10_000 ~instructions_of_edge:(weigh cfg g)
        g
    in
    Printf.printf
      "  %d states, %d arcs: traces %d -> %d, longest %d -> %d edges\n"
      (State_graph.num_states g) (State_graph.num_edges g)
      unlimited.Tour_gen.stats.Tour_gen.num_traces
      limited.Tour_gen.stats.Tour_gen.num_traces
      unlimited.Tour_gen.stats.Tour_gen.longest_trace_edges
      limited.Tour_gen.stats.Tour_gen.longest_trace_edges;
    note "";
    note "  [large model, the paper's scale]";
    let g = Lazy.force large_graph in
    note "  %d states, %d arcs" (State_graph.num_states g)
      (State_graph.num_edges g);
    (* Keep only the stats, so that one tour (tens of millions of
       steps) is alive at a time. *)
    let tour_stats ?instr_limit () =
      (Tour_gen.generate ?instr_limit
         ~instructions_of_edge:(weigh Control_model.large g)
         g)
        .Tour_gen.stats
    in
    print_tour_stats ~limit_label:"large, no trace limit" (tour_stats ())
      ("1,296", "21,200,173", "8,521,468", "21,197,977");
    Printf.printf "\n";
    print_tour_stats ~limit_label:"large, 10,000-instruction limit"
      (tour_stats ~instr_limit:10_000 ())
      ("1,296", "21,252,235", "8,557,660", "144,520")
  end;
  note "";
  note "Shape checks: trace counts identical with and without the limit";
  note "(reset-only edges set the bound: reset out-degree = %d); total"
    (State_graph.out_degree (Lazy.force default_graph) 0);
  note "traversals grow only %.2f%% under the limit."
    (100.
     *. (float_of_int
           (limited.Tour_gen.stats.Tour_gen.edge_traversals
           - no_limit.Tour_gen.stats.Tour_gen.edge_traversals)
        /. float_of_int no_limit.Tour_gen.stats.Tour_gen.edge_traversals))

(* ------------------------------------------------------------------ *)
(* Figures 4.1 / 4.2                                                  *)
(* ------------------------------------------------------------------ *)

let figure_4_1 () =
  section "Figure 4.1: erroneous implementation with MORE behaviours";
  let o = Fsm_demo.figure_4_1 () in
  note "tour arcs %d; divergence detected: %b (expected: true)"
    o.Fsm_demo.arcs_toured o.Fsm_demo.detected

let figure_4_2 () =
  section "Figure 4.2: erroneous implementation with FEWER behaviours";
  let a = Fsm_demo.figure_4_2 ~all_conditions:false in
  note "first-condition labels: arcs %d, detected %b (expected: false — \
        the bug escapes)" a.Fsm_demo.arcs_toured a.Fsm_demo.detected;
  let b = Fsm_demo.figure_4_2 ~all_conditions:true in
  note "all-conditions labels:  arcs %d, detected %b (expected: true — \
        the Section 4 fix)" b.Fsm_demo.arcs_toured b.Fsm_demo.detected

(* ------------------------------------------------------------------ *)
(* Extra: coverage comparison (methodology support)                   *)
(* ------------------------------------------------------------------ *)

let coverage_report () =
  section "Extra: abstract-arc coverage, generated vs random vectors";
  let graph = Lazy.force default_graph in
  let tours = default_tours ~instr_limit:500 () in
  let gen_stimuli =
    Drive.of_traces ~seeds_per_trace:3 default_cfg graph tours
  in
  let acc = Coverage.create default_cfg graph in
  List.iter (fun s -> Coverage.run acc s) gen_stimuli;
  let gen_cov = Coverage.result acc in
  Format.printf "generated: %a@." Coverage.pp gen_cov;
  let budget =
    List.fold_left
      (fun n s -> n + Array.length s.Drive.program - 1)
      0 gen_stimuli
  in
  let acc = Coverage.create default_cfg graph in
  let programs = max 1 (budget / 200) in
  for i = 0 to programs - 1 do
    Coverage.run acc (Baselines.random_stimulus ~seed:i ~instructions:200)
  done;
  let rnd_cov = Coverage.result acc in
  Format.printf "random:    %a@." Coverage.pp rnd_cov

(* ------------------------------------------------------------------ *)
(* Extra: the Section 4 performance-bug blind spot                    *)
(* ------------------------------------------------------------------ *)

let perf_blind_spot () =
  section "Extra: performance bugs are invisible to result comparison";
  note "Bug #5's backstory is a performance bug — the refill drives the";
  note "critical word a second time (older restart policy).  Result";
  note "comparison cannot see it (Section 4); cycle accounting can:";
  (* A warm-I-cache loop whose every load misses (16-line working set
     against an 8-line cache) and whose dependent ALU chain outlasts
     the background fill — so the redundant redrive cycle cannot hide
     under any other stall. *)
  let program =
    Asm.assemble
      {|
        addi r9, r0, 64     ; iterations
        addi r2, r0, 0      ; rotating address
      loop:
        lw   r1, 0(r2)
        addi r3, r1, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r2, r2, 4      ; next line
        andi r2, r2, 63     ; wrap at 16 lines
        subi r9, r9, 1
        bne  r9, r0, loop
        halt
      |}
  in
  let stim =
    {
      Drive.program;
      ready = (fun _ -> (true, true));
      inbox = [];
      mem_init = List.init 64 (fun a -> (a, a));
      source_edges = 0;
    }
  in
  let dut = { Rtl.default_config with Rtl.perf_redrive = true } in
  let v = Perf.compare ~reference:Rtl.default_config ~dut stim in
  Format.printf "%a@." Perf.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice studies promised in DESIGN.md             *)
(* ------------------------------------------------------------------ *)

let ablation_abstraction () =
  section "Ablation: abstraction granularity (fill counters)";
  note "The paper reduces datapath values to distinguished cases; this";
  note "sweep refines the refill FSMs with burst counters and shows the";
  note "state/edge growth the abstraction avoids.";
  Printf.printf "%14s %10s %12s %8s %10s\n" "fill_counters" "states"
    "edges" "bits" "time";
  List.iter
    (fun fc ->
      let cfg = { default_cfg with Control_model.fill_counters = fc } in
      let g = State_graph.enumerate (Control_model.model cfg) in
      let s = g.State_graph.stats in
      Printf.printf "%14d %10d %12d %8d %9.2fs\n" fc
        s.State_graph.num_states s.State_graph.num_edges
        s.State_graph.state_bits s.State_graph.elapsed_s)
    [ 0; 1; 2; 3 ]

let ablation_all_conditions () =
  section "Ablation: first-condition vs all-conditions edge labels";
  note "Section 4: recording only the first condition per (src,dst) pair";
  note "\"eliminates the redundant work\" but can hide fewer-behaviour";
  note "bugs (Figure 4.2).  The cost of the fix:";
  (* A reduced model keeps the all-conditions tour tractable; the
     blowup ratio is the point, not the absolute size. *)
  let cfg =
    { default_cfg with
      Control_model.with_spill = false;
      Control_model.with_mem_nondet = false;
      Control_model.with_fetch_gaps = false }
  in
  let m = Control_model.model cfg in
  let g1 = State_graph.enumerate m in
  let g2 = State_graph.enumerate ~all_conditions:true m in
  Printf.printf "%-18s %10s %12s %14s\n" "labelling" "states" "edges"
    "tour traversals";
  let tour g =
    (Tour_gen.generate g).Tour_gen.stats.Tour_gen.edge_traversals
  in
  Printf.printf "%-18s %10d %12d %14d\n" "first-condition"
    (State_graph.num_states g1) (State_graph.num_edges g1) (tour g1);
  Printf.printf "%-18s %10d %12d %14d\n" "all-conditions"
    (State_graph.num_states g2) (State_graph.num_edges g2) (tour g2)

let ablation_branches () =
  section "Ablation: squashing branches (the paper's next stage)";
  let base = State_graph.enumerate (Control_model.model default_cfg) in
  let br_cfg = { default_cfg with Control_model.with_branches = true } in
  let br = State_graph.enumerate (Control_model.model br_cfg) in
  Printf.printf "%-16s %10s %12s %8s\n" "model" "states" "edges" "bits";
  Printf.printf "%-16s %10d %12d %8d\n" "ALU-folded"
    (State_graph.num_states base) (State_graph.num_edges base)
    base.State_graph.stats.State_graph.state_bits;
  Printf.printf "%-16s %10d %12d %8d\n" "with BR class"
    (State_graph.num_states br) (State_graph.num_edges br)
    br.State_graph.stats.State_graph.state_bits;
  note "(\"This situation will worsen when we include squashing branches";
  note "into the model, but we are still hopeful...\" — Section 3.2)"

(* ------------------------------------------------------------------ *)
(* Extra: mutation analysis of tours vs checking experiments          *)
(* ------------------------------------------------------------------ *)

let mutation_report () =
  section "Extra: fault coverage of tours vs checking experiments";
  note "Single-point mutants of small Mealy machines: transition tours";
  note "observe every transition's output but never verify destination";
  note "states; UIO-method checking experiments do both (Section 5's";
  note "conformance-testing connection, quantified).";
  let rng = Random.State.make [| 42 |] in
  let totals = ref (0, 0, 0, 0) in
  let machines = ref 0 in
  while !machines < 12 do
    let k = 3 + Random.State.int rng 2 in
    let nexts =
      Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng k))
    in
    let outs =
      Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng 2))
    in
    let m =
      {
        Avp_tour.Uio.Mealy.states = k;
        inputs = 2;
        next = (fun s i -> nexts.(s).(i));
        output = (fun s i -> outs.(s).(i));
      }
    in
    let q, _ = Avp_tour.Minimize.minimize m in
    match Avp_tour.Mutation.score q with
    | exception Avp_tour.Checking.No_uio _ -> ()
    | s ->
      incr machines;
      let t, e, tk, ck = !totals in
      totals :=
        ( t + s.Avp_tour.Mutation.total,
          e + s.Avp_tour.Mutation.equivalent,
          tk + s.Avp_tour.Mutation.tour_killed,
          ck + s.Avp_tour.Mutation.checking_killed )
  done;
  let t, e, tk, ck = !totals in
  Printf.printf
    "over %d random minimal machines: %d mutants (%d equivalent)\n"
    !machines t e;
  Printf.printf "  transition tours kill      %4d / %d (%.1f%%)\n" tk (t - e)
    (100. *. float_of_int tk /. float_of_int (t - e));
  Printf.printf "  checking experiments kill  %4d / %d (%.1f%%)\n" ck (t - e)
    (100. *. float_of_int ck /. float_of_int (t - e))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks — one per table                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Microbenchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let tiny_model = Control_model.model Control_model.tiny in
  let tiny_graph = State_graph.enumerate tiny_model in
  let program =
    Array.append
      (Array.init 64 (fun i ->
           if i mod 3 = 0 then Isa.Lw (1, 0, i mod 48)
           else Isa.Alui (Isa.Add, 2, 0, i)))
      [| Isa.Halt |]
  in
  let tests =
    Test.make_grouped ~name:"avp"
      [
        Test.make ~name:"table-1.1 errata classification"
          (Staged.stage (fun () -> ignore (Avp_errata.Errata.table ())));
        Test.make ~name:"table-2.1 rtl+spec comparison run"
          (Staged.stage (fun () ->
               ignore
                 (Compare.run ~program ~inbox:[] ())));
        Test.make ~name:"table-3.2 state enumeration (tiny)"
          (Staged.stage (fun () ->
               ignore (State_graph.enumerate tiny_model)));
        Test.make ~name:"table-3.3 tour generation (tiny)"
          (Staged.stage (fun () -> ignore (Tour_gen.generate tiny_graph)));
        Test.make ~name:"figure-4.x fsm demo"
          (Staged.stage (fun () ->
               ignore (Fsm_demo.figure_4_2 ~all_conditions:true)));
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun label per_test ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-44s %12.1f ns/run (%s)\n" name est label
          | _ -> Printf.printf "  %-44s (no estimate)\n" name)
        per_test)
    merged

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let all_items =
  [
    ("table-1.1", table_1_1);
    ("table-2.1", table_2_1);
    ("figure-2.2", figure_2_2);
    ("figure-2.3", figure_2_3);
    ("table-3.1", table_3_1);
    ("figure-3.2", figure_3_2);
    ("table-3.2", table_3_2);
    ("table-3.3", table_3_3);
    ("figure-4.1", figure_4_1);
    ("figure-4.2", figure_4_2);
    ("coverage", coverage_report);
    ("perf-blind-spot", perf_blind_spot);
    ("mutation", mutation_report);
    ("ablation-abstraction", ablation_abstraction);
    ("ablation-all-conditions", ablation_all_conditions);
    ("ablation-branches", ablation_branches);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    List.iter (fun (_, f) -> f ()) all_items;
    micro ()
  | [ _; "micro" ] -> micro ()
  | [ _; name ] ->
    (match List.assoc_opt name all_items with
     | Some f -> f ()
     | None ->
       Printf.eprintf "unknown item %s; available:\n  %s micro\n" name
         (String.concat " " (List.map fst all_items));
       exit 1)
  | _ ->
    Printf.eprintf "usage: main.exe [item|micro]\n";
    exit 1
