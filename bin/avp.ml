(* avp: architecture validation for processors.

   Command-line front end for the library: translate annotated Verilog
   to an FSM model, enumerate its state graph, generate transition
   tours and test vectors, and run the Protocol Processor validation
   campaign.  Each command's body is a function in Avp_core.Commands;
   this file parses its flags and prints what it returns. *)

open Cmdliner
module C = Avp_core.Commands

(* ---------------------------------------------------------------- *)
(* Shared arguments                                                 *)
(* ---------------------------------------------------------------- *)

(* Integers with a lower bound: a value below it is a usage error
   (exit 124) naming the flag. *)
let int_in min =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        if min <= n then Ok n
        else
          Error
            (`Msg
               (Printf.sprintf "invalid value '%s', expected an integer >= %d"
                  s min)))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative = int_in 0
let positive = int_in 1
let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

(* An optional flag: [None] when absent. *)
let opt_arg kind name docv doc =
  Arg.(value & opt (some kind) None & info [ name ] ~docv ~doc)

let string_arg = opt_arg Arg.string

let strings_arg name docv doc =
  Arg.(value & opt_all string [] & info [ name ] ~docv ~doc)

let engine_arg doc =
  Arg.(
    value
    & opt (enum [ ("sliced", `Sliced); ("scalar", `Scalar) ]) `Sliced
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Annotated Verilog source file, 'pp' for the built-in \
              Protocol Processor control module, or (for enumerate and \
              tour) a .sml model or one of the abstract control FSM \
              presets 'pp-model', 'pp-model-medium' and 'pp-model-large'.")

let top_arg =
  string_arg "top" "MODULE" "Top module (default: last in file)."

let all_conditions_arg =
  flag_arg "all-conditions"
    "Record every distinct condition per (src,dst) pair — the Section 4 fix \
     for implementations with fewer behaviours."

let limit_arg =
  opt_arg positive "limit" "N"
    "Per-trace instruction limit (the paper uses 10000)."

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"PRNG seed for the random baselines; a fixed seed makes the \
              whole run byte-reproducible.")

let trace_arg =
  string_arg "trace" "FILE"
    "Write a trace of the run: Chrome trace_event JSON (loadable in \
     chrome://tracing and Perfetto), or JSON-lines when $(docv) ends in \
     .jsonl."

let metrics_arg =
  string_arg "metrics" "FILE" "Write accumulated counters as JSON."

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:"Profile the run in-process: span self/total times and \
              allocation per span.  Writes profile JSON to $(docv), or \
              prints the text report to stderr when $(docv) is '-' (the \
              default when the flag is given bare).  Enables GC \
              sampling, so a trace captured alongside carries \
              allocation args.")

let report_arg =
  string_arg "report" "DIR"
    "Write a unified coverage report ($(docv)/report.json and \
     $(docv)/report.html) aggregating enumeration, tours, coverage, replay \
     and mutation results."

let vcd_arg =
  string_arg "vcd" "FILE"
    "Dump a VCD waveform of the first tour trace's vectors replayed against \
     the design, force/release commands annotated."

(* ---------------------------------------------------------------- *)
(* Commands                                                         *)
(* ---------------------------------------------------------------- *)

let translate_cmd =
  let run file top murphi = C.print (C.translate ?top ~murphi file) in
  let murphi_arg =
    flag_arg "murphi" "Emit Synchronous Murphi text."
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Translate annotated Verilog to an FSM model.")
    Term.(const run $ file_arg $ top_arg $ murphi_arg)

let enumerate_cmd =
  let run file top all_conditions dot trace metrics profile =
    C.print
      (C.enumerate ?top ~all_conditions ?dot ?trace ?metrics ?profile file)
  in
  let dot_arg =
    string_arg "dot" "OUT" "Write a Graphviz rendering."
  in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Fully enumerate the control state graph.")
    Term.(
      const run $ file_arg $ top_arg $ all_conditions_arg $ dot_arg
      $ trace_arg $ metrics_arg $ profile_arg)

let tour_cmd =
  let run file top all_conditions limit trace metrics =
    C.print (C.tour ?top ~all_conditions ?limit ?trace ?metrics file)
  in
  Cmd.v
    (Cmd.info "tour" ~doc:"Generate transition tours of the state graph.")
    Term.(
      const run $ file_arg $ top_arg $ all_conditions_arg $ limit_arg
      $ trace_arg $ metrics_arg)

let vectors_cmd =
  let run file top limit out = C.print (C.vectors ?top ?limit ~out file) in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Output directory, created with its parents if missing.")
  in
  Cmd.v
    (Cmd.info "vectors" ~doc:"Emit force/release test-vector files.")
    Term.(const run $ file_arg $ top_arg $ limit_arg $ out_arg)

let mutate_cmd =
  let run file top ops seed budget json limit gate engine trace metrics
      profile report =
    C.print
      (C.mutate ?top ~ops ~seed ?budget ~json ?limit ?gate ~engine ?trace
         ?metrics ?profile ?report file)
  in
  let ops_arg =
    strings_arg "ops" "FAMILY"
      "Operator families to apply (comma-separated, repeatable; default \
       all): cond-negate, op-swap, stuck-at, const-off-by-one, drop-assign, \
       tri-enable."
  in
  let budget_arg =
    opt_arg non_negative "budget" "N"
      "Sample at most $(docv) mutants (seeded, deterministic; default: all)."
  in
  let json_arg =
    flag_arg "json"
      "Emit the full report as JSON.  Contains no timings, so output is \
       byte-identical across runs and engines."
  in
  let gate_arg =
    opt_arg Arg.float "gate" "RATE"
      "Exit 1 unless the tour kill-rate is at least $(docv) and at least \
       the random baseline's kill-rate."
  in
  let engine_arg =
    engine_arg
      "Replay backend: $(b,sliced) (default) classifies up to 62 mutants \
       word-parallel per pass through one bit-sliced schemata kernel; \
       $(b,scalar) replays one mutant at a time on the reference \
       interpreter. Reports are byte-identical either way."
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Run a mutation kill campaign: structured mutants of the \
             design, tour vectors vs a size-matched random baseline.")
    Term.(
      const run $ file_arg $ top_arg $ ops_arg $ seed_arg $ budget_arg
      $ json_arg $ limit_arg $ gate_arg $ engine_arg
      $ trace_arg $ metrics_arg $ profile_arg $ report_arg)

let fuzz_cmd =
  let run file top seed budget batch engine corpus replay mutants json gate
      trace metrics profile report =
    C.print
      (C.fuzz ?top ~seed ~budget ?batch ~engine ?corpus ?replay ?mutants ~json
         ~gate ?trace ?metrics ?profile ?report file)
  in
  let file_arg =
    Arg.(
      value & pos 0 string "pp"
      & info [] ~docv:"FILE"
          ~doc:"Annotated Verilog source file, or 'pp' (default) for the \
                built-in Protocol Processor control module.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed of the fuzzing loop; a fixed seed makes the run \
                byte-reproducible on either engine.")
  in
  let budget_arg =
    Arg.(
      value & opt non_negative 512
      & info [ "budget" ] ~docv:"N"
          ~doc:"Candidate executions, initial random population included.")
  in
  let batch_arg =
    opt_arg positive "batch" "N"
      "Candidates per round (default 31; a sliced-engine round evaluates a \
       round's candidates word-parallel)."
  in
  let engine_arg =
    engine_arg
      "Simulation backend for candidate evaluation and for the generator \
       comparison's kill scoring: $(b,sliced) (default) runs up to 62 \
       candidates, or 62 mutants, word-parallel through one bit-sliced \
       kernel; $(b,scalar) one at a time on the reference interpreter. The \
       corpus and the comparison are byte-identical either way."
  in
  let corpus_arg =
    string_arg "corpus" "FILE" "Persist the kept corpus as a JSON seed file."
  in
  let replay_arg =
    string_arg "replay" "FILE"
      "Re-run a persisted corpus byte-identically instead of fuzzing: every \
       entry must re-earn its keep, and the resulting coverage must equal \
       the growing run's."
  in
  let mutants_arg =
    opt_arg non_negative "mutants" "N"
      "Sample at most $(docv) mutants for the kill comparison (seeded, \
       deterministic; default: all)."
  in
  let json_arg =
    flag_arg "json"
      "Emit the result as JSON.  Contains no timings or engine, so output \
       is byte-identical across runs and engines."
  in
  let gate_arg =
    flag_arg "gate"
      "Exit 1 unless the fuzz corpus reaches at least the size-matched \
       random baseline's arc coverage and kill count."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided mutational fuzzing of the control design: \
             grow a corpus under arc/(state, input-class) feedback and \
             score it against transition tours and a size-matched random \
             baseline on mutant kills.")
    Term.(
      const run $ file_arg $ top_arg $ seed_arg $ budget_arg $ batch_arg
      $ engine_arg $ corpus_arg $ replay_arg $ mutants_arg
      $ json_arg $ gate_arg $ trace_arg $ metrics_arg $ profile_arg
      $ report_arg)

let validate_cmd =
  let run file bug limit seed fuzz trace metrics vcd report =
    C.print
      (C.validate ?file ?bug ?limit ~seed ?fuzz ?trace ?metrics ?vcd ?report
         ())
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Design to validate.  Only the built-in 'pp' Protocol \
                Processor campaign is supported (the default).")
  in
  let bug_arg =
    opt_arg Arg.int "bug" "N" "Restrict to one Table 2.1 bug (1-6)."
  in
  let fuzz_arg =
    opt_arg non_negative "fuzz" "BUDGET"
      "Also score a coverage-guided instruction-level fuzz corpus grown \
       with $(docv) candidate executions as a fourth method."
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Run the Protocol Processor validation campaign (Table 2.1).")
    Term.(
      const run $ file_arg $ bug_arg $ limit_arg $ seed_arg
      $ fuzz_arg $ trace_arg $ metrics_arg $ vcd_arg $ report_arg)

let lint_cmd =
  let open Avp_analysis in
  let run file top json only ignored strict fsm absint rules_md =
    C.print
      (C.lint ?top ~json ~only ~ignored ~strict ~fsm ~absint ~rules_md file)
  in
  let json_arg =
    flag_arg "json"
      "Emit findings as a JSON object (the machine-checkable gate format \
       used by CI)."
  in
  let only_arg =
    strings_arg "only" "RULE" "Report only findings of $(docv); repeatable."
  in
  let ignore_arg =
    strings_arg "ignore" "RULE"
      "Drop findings of $(docv); repeatable.  $(b,--only) wins when both are \
       given."
  in
  let strict_arg =
    flag_arg "strict" "Exit with code 1 when warnings remain."
  in
  let fsm_arg =
    flag_arg "fsm"
      "Also run the FSM model checks on a Verilog design (requires avp \
       state annotations; .sml inputs always get them)."
  in
  let absint_arg =
    flag_arg "absint"
      "Also run the abstract-interpretation fixpoint and report its \
       invariant-backed findings (constant-net, unreachable-branch, \
       redundant-reset).  Verilog designs only."
  in
  let rules_md_arg =
    flag_arg "rules-md"
      "Print the rules table as GitHub markdown (the README embeds it; a \
       test asserts they match) and exit."
  in
  let man =
    [
      `S Manpage.s_description;
      `P "Static analysis over the elaborated netlist: a dataflow framework \
          drives combinational-loop detection (Tarjan SCC), latch \
          inference (incomplete assignment paths), X/Z-source taint \
          tracking into sequential state, width checks and the structural \
          style rules.  For .sml models the FSM itself is checked: \
          statically unreachable state-variable values, sink states, \
          vacuous or overlapping nondeterministic choices, and dead or \
          shadowed rule guards.";
      `P "Findings are ordered deterministically by (severity, rule, net, \
          position) so output is byte-stable across runs.";
      `S "RULES";
    ]
    @ List.map
        (fun (name, sev, doc) ->
          `I
            ( Printf.sprintf "$(b,%s) (%s)" name
                (Finding.severity_string sev),
              doc ))
        Analysis.rules
    @ [
        `S "EXIT STATUS";
        `P "0 on a clean design (or warnings without $(b,--strict)); 1 when \
            warnings remain and $(b,--strict) was given; 2 when errors were \
            found (or the rule selection was invalid).";
      ]
  in
  Cmd.v
    (Cmd.info "lint" ~man
       ~doc:"Statically analyse a design or FSM model against the stylized \
             subset.")
    Term.(
      const run $ file_arg $ top_arg $ json_arg $ only_arg $ ignore_arg
      $ strict_arg $ fsm_arg $ absint_arg $ rules_md_arg)

let invariants_cmd =
  let run file top json = C.print (C.invariants ?top ~json file) in
  let json_arg =
    flag_arg "json"
      "Emit the invariants as a JSON object (the CI artifact format)."
  in
  Cmd.v
    (Cmd.info "invariants"
       ~doc:"Print the abstract interpreter's proven per-net invariants: \
             known bits of both planes, value ranges, and the post-reset \
             refinement when clock/reset directives are present.")
    Term.(const run $ file_arg $ top_arg $ json_arg)

let replay_cmd =
  let run file top limit trace metrics profile vcd report =
    C.print (C.replay ?top ?limit ?trace ?metrics ?profile ?vcd ?report file)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Generate tours and replay their vectors against the design, \
             checking every predicted transition.")
    Term.(
      const run $ file_arg $ top_arg $ limit_arg $ trace_arg $ metrics_arg
      $ profile_arg $ vcd_arg $ report_arg)

let profile_cmd =
  let run trace_file folded flame json normalize =
    C.print (C.profile ?folded ?flame ?json ~normalize trace_file)
  in
  let trace_file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"A trace written by $(b,--trace): Chrome trace_event JSON, \
                or JSON-lines when $(docv) ends in .jsonl.")
  in
  let folded_out_arg =
    string_arg "folded" "FILE"
      "Write collapsed stacks ('frame;frame self_ns' lines) for inferno, \
       speedscope or flamegraph.pl."
  in
  let flame_out_arg =
    string_arg "flame" "FILE"
      "Write a self-contained static HTML flame (icicle) view."
  in
  let json_out_arg =
    string_arg "json" "FILE"
      "Write the full profile as JSON instead of printing the text report."
  in
  let normalize_arg =
    flag_arg "normalize"
      "With $(b,--json): keep only the run-invariant skeleton (per-label \
       counts, no times) — byte-identical across runs of deterministic \
       work."
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Analyze a recorded trace: per-span self/total time and \
             percentiles, and collapsed-stack flamegraph export.")
    Term.(
      const run $ trace_file_arg $ folded_out_arg $ flame_out_arg
      $ json_out_arg $ normalize_arg)

let errata_cmd =
  Cmd.v
    (Cmd.info "errata" ~doc:"Print the MIPS R4000 errata classification.")
    Term.(const (fun () -> C.print (C.errata ())) $ const ())

let main =
  let doc = "architecture validation for processors (ISCA 1995)" in
  Cmd.group
    (Cmd.info "avp" ~version:"1.0.0" ~doc)
    [
      translate_cmd; enumerate_cmd; tour_cmd; vectors_cmd; replay_cmd;
      lint_cmd; invariants_cmd; validate_cmd; mutate_cmd; fuzz_cmd;
      profile_cmd; errata_cmd;
    ]

let () = exit (Cmd.eval' main)
