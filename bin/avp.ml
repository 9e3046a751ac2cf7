(* avp: architecture validation for processors.

   Command-line front end for the library: translate annotated Verilog
   to an FSM model, enumerate its state graph, generate transition
   tours and test vectors, and run the Protocol Processor validation
   campaign. *)

open Cmdliner
open Avp_hdl
open Avp_fsm
open Avp_enum
open Avp_tour

(* The file the running command read: front-end errors escaping to the
   handler at the bottom of this file are reported against it. *)
let source_name = ref "avp"

let read_file path =
  source_name := path;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Verilog source text: a file, or the built-in control module. *)
let source file =
  if file = "pp" then Avp_pp.Control_hdl.source else read_file file

(* ---------------------------------------------------------------- *)
(* Shared arguments                                                 *)
(* ---------------------------------------------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Annotated Verilog source file, a .sml model (for enumerate \
              and tour), 'pp' for the built-in Protocol Processor control \
              module, or 'pp-model'/'pp-model-medium'/'pp-model-large' \
              for the abstract control FSM presets (pure transition \
              functions, so enumeration can use every domain).")

let top_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "top" ] ~docv:"MODULE" ~doc:"Top module (default: last in file).")

let all_conditions_arg =
  Arg.(
    value & flag
    & info [ "all-conditions" ]
        ~doc:"Record every distinct condition per (src,dst) pair — the \
              Section 4 fix for implementations with fewer behaviours.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N"
        ~doc:"Per-trace instruction limit (the paper uses 10000).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains"; "j" ] ~docv:"N"
        ~doc:"Domains (cores) to shard the work over: mutants in \
              $(b,mutate), candidates in $(b,fuzz), traces in \
              $(b,replay), stimuli in $(b,validate).  Output is \
              identical for any value.  Default: 1 for $(b,replay) and \
              $(b,validate); for $(b,mutate) and $(b,fuzz), the \
              AVP_DOMAINS environment variable, else the recommended \
              domain count.")

(* ---------------------------------------------------------------- *)
(* Telemetry plumbing                                                *)
(* ---------------------------------------------------------------- *)

module Obs = Avp_obs.Obs

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a trace of the run: Chrome trace_event JSON (loadable \
              in chrome://tracing and Perfetto), or JSON-lines when \
              $(docv) ends in .jsonl.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write accumulated counters and histograms as JSON.")

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:"Profile the run in-process: span self/total times, \
              allocation per span, and the parallel-efficiency \
              diagnosis.  Writes profile JSON to $(docv), or prints the \
              text report to stderr when $(docv) is '-' (the default \
              when the flag is given bare).  Enables GC sampling, so a \
              trace captured alongside carries allocation args and is \
              no longer -j invariant.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"DIR"
        ~doc:"Write a unified coverage report ($(docv)/report.json and \
              $(docv)/report.html) aggregating enumeration, tours, \
              coverage, replay and mutation results.")

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE"
        ~doc:"Dump a VCD waveform of the first tour trace's vectors \
              replayed against the design, force/release commands \
              annotated.")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Install a tracer when --trace/--metrics was given; artifacts are
   written on the way out even when the command exits nonzero, so a
   failing gate still leaves its trace behind. *)
(* Report-writing commands embed the in-process profile when the run
   passed --profile; they run inside [with_obs]'s thunk, so they read
   the live tracer rather than a finished one. *)
let profile_requested = ref false

let with_obs ?(profile = None) ~trace ~metrics f =
  match (trace, metrics, profile) with
  | None, None, None -> f ()
  | _ ->
    if profile <> None then profile_requested := true;
    let t = Obs.create ~gc:(profile <> None) () in
    let code =
      Obs.with_tracer t (fun () ->
          let code = f () in
          Obs.sample_gc ();
          code)
    in
    Option.iter
      (fun p ->
        Obs.write_trace t p;
        Format.eprintf "trace: wrote %s@." p)
      trace;
    Option.iter
      (fun p ->
        Obs.write_metrics t p;
        Format.eprintf "metrics: wrote %s@." p)
      metrics;
    Option.iter
      (fun p ->
        let prof = Avp_obs.Prof.of_tracer t in
        if p = "-" then Format.eprintf "%a" Avp_obs.Prof.pp prof
        else begin
          write_file p (Avp_obs.Prof.to_json prof);
          Format.eprintf "profile: wrote %s@." p
        end)
      profile;
    code

(* Periodic stderr progress, shown only on a TTY and never under
   --json (machine consumers own stdout; stderr stays quiet too). *)
let make_progress ?(json = false) ?total label =
  Avp_obs.Progress.create
    ~enabled:((not json) && Avp_obs.Progress.stderr_is_tty ())
    ?total ~label ()

let enum_section (s : State_graph.stats) : Avp_obs.Report.enum_section =
  {
    Avp_obs.Report.num_states = s.State_graph.num_states;
    num_edges = s.State_graph.num_edges;
    state_bits = s.State_graph.state_bits;
    enum_elapsed_s = s.State_graph.elapsed_s;
    levels = Array.length s.State_graph.level_times;
  }

let tour_section (s : Tour_gen.stats) : Avp_obs.Report.tour_section =
  {
    Avp_obs.Report.traces = s.Tour_gen.num_traces;
    traversals = s.Tour_gen.edge_traversals;
    instructions = s.Tour_gen.instructions;
    longest_edges = s.Tour_gen.longest_trace_edges;
    longest_instructions = s.Tour_gen.longest_trace_instructions;
    limit_hits = s.Tour_gen.traces_hitting_limit;
  }

let write_report report ~dir =
  let report =
    match (!profile_requested, Obs.current ()) with
    | true, Some t ->
      Obs.sample_gc ();
      { report with Avp_obs.Report.profile = Some (Avp_obs.Prof.of_tracer t) }
    | _ -> report
  in
  Avp_obs.Report.write report ~dir;
  Format.eprintf "report: wrote %s/report.json and %s/report.html@." dir dir

(* ---------------------------------------------------------------- *)
(* Model loading                                                    *)
(* ---------------------------------------------------------------- *)

let load_translation file top =
  Translate.translate (Elab.elaborate ?top (Parser.parse (source file)))

(* Enumerate/tour also accept models in the Synchronous-Murphi-style
   text language (.sml files). *)
let load_model file top =
  match file with
  | "pp-model" -> Avp_pp.Control_model.(model default)
  | "pp-model-medium" -> Avp_pp.Control_model.(model medium)
  | "pp-model-large" -> Avp_pp.Control_model.(model large)
  | _ ->
    if Filename.check_suffix file ".sml" then Sml.parse (read_file file)
    else (load_translation file top).Translate.model

(* ---------------------------------------------------------------- *)
(* Commands                                                         *)
(* ---------------------------------------------------------------- *)

let translate_cmd =
  let run file top murphi =
    let tr = load_translation file top in
    let m = tr.Translate.model in
    Format.printf
      "translated %s: %d state vars (%d bits), %d choice vars (%d \
       combinations)@."
      file
      (Array.length m.Model.state_vars)
      (Model.state_bits m)
      (Array.length m.Model.choice_vars)
      (Model.num_choices m);
    List.iter
      (fun l -> Format.printf "latch folded into state: %a@." Latch.pp_latch l)
      tr.Translate.latches;
    if murphi then print_string (Murphi.emit tr);
    0
  in
  let murphi_arg =
    Arg.(value & flag & info [ "murphi" ] ~doc:"Emit Synchronous Murphi text.")
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Translate annotated Verilog to an FSM model.")
    Term.(const run $ file_arg $ top_arg $ murphi_arg)

let enumerate_cmd =
  let run file top all_conditions dot trace metrics profile =
    with_obs ~profile ~trace ~metrics @@ fun () ->
    let progress = make_progress "enumerate" in
    let g =
      State_graph.enumerate ~all_conditions ~progress (load_model file top)
    in
    Avp_obs.Progress.finish progress;
    Format.printf "%a@." State_graph.pp_stats g.State_graph.stats;
    (match State_graph.absorbing_states g with
     | [] -> ()
     | dead ->
       Format.printf
         "WARNING: %d absorbing state(s) — the machine can deadlock; \
          tours exercise their self-loops but cannot flag them@."
         (List.length dead));
    (match dot with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       let ppf = Format.formatter_of_out_channel oc in
       Format.fprintf ppf "%a@." State_graph.pp_dot g;
       close_out oc;
       Format.printf "wrote %s@." path);
    0
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"OUT" ~doc:"Write a Graphviz rendering.")
  in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Fully enumerate the control state graph.")
    Term.(
      const run $ file_arg $ top_arg $ all_conditions_arg $ dot_arg
      $ trace_arg $ metrics_arg $ profile_arg)

let tour_cmd =
  let run file top all_conditions limit trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let g = State_graph.enumerate ~all_conditions (load_model file top) in
    let t = Tour_gen.generate ?instr_limit:limit g in
    Format.printf "%a@." Tour_gen.pp_stats t.Tour_gen.stats;
    Format.printf "covers all arcs: %b@." (Tour_gen.covers_all_edges g t);
    0
  in
  Cmd.v
    (Cmd.info "tour" ~doc:"Generate transition tours of the state graph.")
    Term.(
      const run $ file_arg $ top_arg $ all_conditions_arg $ limit_arg
      $ trace_arg $ metrics_arg)

let vectors_cmd =
  let run file top limit out =
    let tr = load_translation file top in
    let g = State_graph.enumerate tr.Translate.model in
    let t = Tour_gen.generate ?instr_limit:limit g in
    let map = Avp_vectors.Condition_map.of_translation tr in
    Array.iteri
      (fun i trace ->
        let v = Avp_vectors.Condition_map.vectors_of_trace map trace in
        let path = Printf.sprintf "%s/trace%04d.vec" out i in
        let oc = open_out path in
        output_string oc (Avp_vectors.Vector.to_string v);
        close_out oc)
      t.Tour_gen.traces;
    Format.printf "wrote %d vector files to %s@."
      (Array.length t.Tour_gen.traces)
      out;
    0
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "vectors" ~doc:"Emit force/release test-vector files.")
    Term.(const run $ file_arg $ top_arg $ limit_arg $ out_arg)

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"PRNG seed for the random baselines; a fixed seed makes the \
              whole run byte-reproducible.")

let mutate_cmd =
  let open Avp_mutate in
  let run file top ops seed budget json domains limit gate engine trace
      metrics profile report_dir =
    with_obs ~profile ~trace ~metrics @@ fun () ->
    let src = source file in
    let names =
      List.concat_map (String.split_on_char ',') ops
      |> List.filter (fun s -> s <> "")
    in
    match
      List.partition_map
        (fun n ->
          match Op.family_of_name n with
          | Some f -> Left f
          | None -> Right n)
        names
    with
    | _, (bad :: _) ->
      Format.eprintf
        "avp mutate: unknown operator family '%s' (known: %s)@." bad
        (String.concat ", " (List.map Op.family_name Op.all_families));
      2
    | families, [] ->
      let families = match families with [] -> None | l -> Some l in
      let design = Parser.parse src in
      let tr = Translate.translate (Elab.elaborate ?top design) in
      let graph = State_graph.enumerate tr.Translate.model in
      let tours = Tour_gen.generate ?instr_limit:limit graph in
      let domains =
        match domains with Some d -> d | None -> Pool.default_domains ()
      in
      let progress = make_progress ~json "mutate" in
      let report =
        Campaign.run ?families ~seed ?budget ~domains ?top ~progress ~engine
          ~design ~tr ~graph ~tours ()
      in
      Avp_obs.Progress.finish progress;
      if json then print_string (Campaign.to_json report)
      else Format.printf "%a" Campaign.pp_report report;
      Option.iter
        (fun dir ->
          let r =
            Avp_obs.Report.empty ~title:"avp mutation report"
              ~design:report.Campaign.design
          in
          let r =
            {
              r with
              Avp_obs.Report.enum = Some (enum_section graph.State_graph.stats);
              tour = Some (tour_section tours.Tour_gen.stats);
              mutation = Some (Campaign.report_section report);
            }
          in
          let r =
            Avp_obs.Report.add_note r
              (Printf.sprintf "seed %d, %d mutants" report.Campaign.seed
                 report.Campaign.total)
          in
          write_report r ~dir)
        report_dir;
      (match gate with
       | None -> 0
       | Some floor ->
         if report.Campaign.tour_rate < report.Campaign.random_rate then begin
           Format.eprintf
             "avp mutate: GATE FAILED: tour kill-rate %.4f below the random \
              baseline %.4f@."
             report.Campaign.tour_rate report.Campaign.random_rate;
           1
         end
         else if report.Campaign.tour_rate < floor then begin
           Format.eprintf
             "avp mutate: GATE FAILED: tour kill-rate %.4f below the \
              committed floor %.4f@."
             report.Campaign.tour_rate floor;
           1
         end
         else 0)
  in
  let ops_arg =
    Arg.(
      value & opt_all string []
      & info [ "ops" ] ~docv:"FAMILY"
          ~doc:"Operator families to apply (comma-separated, repeatable; \
                default all): cond-negate, op-swap, stuck-at, \
                const-off-by-one, drop-assign, tri-enable.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:"Sample at most $(docv) mutants (seeded, deterministic; \
                default: all).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the full report as JSON.  Contains no timings, so \
                output is byte-identical across runs and $(b,-j) values.")
  in
  let gate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"RATE"
          ~doc:"Exit 1 unless the tour kill-rate is at least $(docv) and \
                at least the random baseline's kill-rate.")
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("sliced", `Sliced); ("scalar", `Scalar) ]) `Sliced
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Replay backend: $(b,sliced) (default) classifies up to 62 \
                mutants word-parallel per pass through one bit-sliced \
                schemata kernel; $(b,scalar) replays one mutant at a time. \
                Reports are byte-identical either way.")
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Run a mutation kill campaign: structured mutants of the \
             design, tour vectors vs a size-matched random baseline.")
    Term.(
      const run $ file_arg $ top_arg $ ops_arg $ seed_arg $ budget_arg
      $ json_arg $ domains_arg $ limit_arg $ gate_arg $ engine_arg
      $ trace_arg $ metrics_arg $ profile_arg $ report_arg)

let fuzz_cmd =
  let module J = Avp_obs.Json in
  let module Loop = Avp_fuzz.Loop in
  let module Compare = Avp_fuzz.Compare in
  let run file top seed budget batch engine domains corpus_out replay_in
      mutants json gate trace metrics profile report_dir =
    with_obs ~profile ~trace ~metrics @@ fun () ->
    let src = source file in
    let design = Parser.parse src in
    let tr = Translate.translate (Elab.elaborate ?top design) in
    let graph = State_graph.enumerate tr.Translate.model in
    let domains =
      match domains with Some d -> d | None -> Pool.default_domains ()
    in
    let config =
      {
        Loop.default_config with
        Loop.seed;
        budget;
        engine;
        domains;
        batch = Option.value ~default:Loop.default_config.Loop.batch batch;
      }
    in
    let outcome =
      match replay_in with
      | None ->
        let progress = make_progress ~json ~total:budget "fuzz" in
        let r = Loop.run ~progress ~config tr graph in
        Avp_obs.Progress.finish progress;
        Ok r
      | Some path -> (
        match Avp_fuzz.Corpus.load ~file:path with
        | Error e -> Error e
        | Ok c ->
          let progress =
            make_progress ~json ~total:(Array.length c.Avp_fuzz.Corpus.entries)
              "fuzz-replay"
          in
          let r = Loop.replay ~progress ~config c tr graph in
          Avp_obs.Progress.finish progress;
          r)
    in
    match outcome with
    | Error msg ->
      Format.eprintf "avp fuzz: %s@." msg;
      2
    | Ok result ->
      Option.iter
        (fun path ->
          Avp_fuzz.Corpus.save (Loop.corpus result tr) ~file:path;
          Format.eprintf "corpus: wrote %s@." path)
        corpus_out;
      (* The generator comparison runs only for a growing run — a
         replay is the byte-identity check, kept cheap. *)
      let cmp =
        if replay_in <> None then None
        else begin
          let tours = Tour_gen.generate graph in
          let cprogress = make_progress ~json "compare" in
          let c =
            Compare.run ~seed ?mutant_budget:mutants ~domains
              ~progress:cprogress ~design ~tr ~graph ~tours ~fuzz:result ()
          in
          Avp_obs.Progress.finish cprogress;
          Some c
        end
      in
      let cov = Avp_obs.Coverage.summary result.Loop.coverage in
      if json then begin
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
                           ("states", J.Int k.Loop.gain.Avp_obs.Coverage.c_states);
                           ("arcs", J.Int k.Loop.gain.Avp_obs.Coverage.c_arcs);
                           ("pairs", J.Int k.Loop.gain.Avp_obs.Coverage.c_pairs);
                         ] );
                   ])
               result.Loop.kept)
        in
        let fields =
          [
            ("design", J.Str result.Loop.design);
            ("mode", J.Str (if replay_in = None then "run" else "replay"));
            ("seed", J.Int seed);
            ("budget", J.Int config.Loop.budget);
            ("batch", J.Int config.Loop.batch);
            ("rounds", J.Int result.Loop.rounds);
            ("executed", J.Int result.Loop.executed);
            ("corpus", J.Int (Array.length result.Loop.kept));
            ("explore_cycles", J.Int result.Loop.explore_cycles);
            ( "coverage",
              J.Obj
                [
                  ("states", J.Int cov.Avp_obs.Coverage.states_seen);
                  ("states_total", J.Int cov.Avp_obs.Coverage.states_total);
                  ("arcs", J.Int cov.Avp_obs.Coverage.arcs_seen);
                  ("arcs_total", J.Int cov.Avp_obs.Coverage.arcs_total);
                  ("pairs", J.Int (Avp_obs.Coverage.pairs_seen result.Loop.coverage));
                  ("unmapped", J.Int cov.Avp_obs.Coverage.unmapped);
                ] );
            ("kept", J.List kept_json);
          ]
          @
          match cmp with
          | Some c -> [ ("compare", Compare.json_value c) ]
          | None -> []
        in
        print_string (J.to_string_pretty (J.Obj fields));
        print_newline ()
      end
      else begin
        Format.printf
          "fuzz: %s %d rounds, %d/%d candidates kept, %d explore cycles@."
          result.Loop.design result.Loop.rounds
          (Array.length result.Loop.kept)
          result.Loop.executed result.Loop.explore_cycles;
        Format.printf "coverage: %a, %d (state, input-class) pairs@."
          Avp_obs.Coverage.pp cov
          (Avp_obs.Coverage.pairs_seen result.Loop.coverage);
        Option.iter (Format.printf "%a" Compare.pp) cmp
      end;
      Option.iter
        (fun dir ->
          let r =
            Avp_obs.Report.empty ~title:"avp fuzz report"
              ~design:result.Loop.design
          in
          let r =
            {
              r with
              Avp_obs.Report.enum = Some (enum_section graph.State_graph.stats);
              coverage = Some cov;
              fuzz = Option.map (Compare.report_section result) cmp;
            }
          in
          let r =
            Avp_obs.Report.add_note r
              (Printf.sprintf "seed %d, budget %d, batch %d" seed
                 config.Loop.budget config.Loop.batch)
          in
          write_report r ~dir)
        report_dir;
      if not gate then 0
      else
        match cmp with
        | None ->
          Format.eprintf
            "avp fuzz: --gate needs the generator comparison (not \
             available under --replay)@.";
          2
        | Some c -> (
          match
            (Compare.find_method c "fuzz", Compare.find_method c "random")
          with
          | Some f, Some r ->
            if f.Compare.m_arcs < r.Compare.m_arcs then begin
              Format.eprintf
                "avp fuzz: GATE FAILED: fuzz arc coverage %d below the \
                 random baseline %d@."
                f.Compare.m_arcs r.Compare.m_arcs;
              1
            end
            else if f.Compare.m_killed < r.Compare.m_killed then begin
              Format.eprintf
                "avp fuzz: GATE FAILED: fuzz kills %d below the random \
                 baseline %d@."
                f.Compare.m_killed r.Compare.m_killed;
              1
            end
            else 0
          | _ -> assert false)
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
                byte-reproducible on any engine and domain count.")
  in
  let budget_arg =
    Arg.(
      value & opt int 512
      & info [ "budget" ] ~docv:"N"
          ~doc:"Candidate executions, initial random population included.")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"N"
          ~doc:"Candidates per round (default 31; a sliced-engine round \
                evaluates a round's candidates word-parallel).")
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("sliced", `Sliced); ("scalar", `Scalar) ]) `Sliced
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Simulation backend for candidate evaluation and for the \
                generator comparison's kill scoring: $(b,sliced) (default) \
                runs up to 62 candidates, or 62 mutants, word-parallel \
                through one bit-sliced kernel; $(b,scalar) one at a time. \
                The corpus and the comparison are byte-identical either \
                way.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Persist the kept corpus as a JSON seed file.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a persisted corpus byte-identically instead of \
                fuzzing: every entry must re-earn its keep, and the \
                resulting coverage must equal the growing run's.")
  in
  let mutants_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mutants" ] ~docv:"N"
          ~doc:"Sample at most $(docv) mutants for the kill comparison \
                (seeded, deterministic; default: all).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the result as JSON.  Contains no timings, engine or \
                domain count, so output is byte-identical across runs, \
                engines and $(b,-j) values.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:"Exit 1 unless the fuzz corpus reaches at least the \
                size-matched random baseline's arc coverage and kill \
                count.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided mutational fuzzing of the control design: \
             grow a corpus under arc/(state, input-class) feedback and \
             score it against transition tours and a size-matched random \
             baseline on mutant kills.")
    Term.(
      const run $ file_arg $ top_arg $ seed_arg $ budget_arg $ batch_arg
      $ engine_arg $ domains_arg $ corpus_arg $ replay_arg $ mutants_arg
      $ json_arg $ gate_arg $ trace_arg $ metrics_arg $ profile_arg
      $ report_arg)

let validate_cmd =
  let run file bug limit domains seed fuzz trace metrics vcd report_dir =
    let known n =
      List.exists (fun id -> Avp_pp.Bugs.number id = n) Avp_pp.Bugs.all_ids
    in
    match (file, bug) with
    | Some f, _ when f <> "pp" ->
      Format.eprintf
        "avp validate: unknown design '%s' — only the built-in 'pp' \
         Protocol Processor campaign is supported@."
        f;
      2
    | _, Some n when not (known n) ->
      Format.eprintf "avp validate: unknown bug %d (1-6)@." n;
      2
    | _ ->
      with_obs ~trace ~metrics @@ fun () ->
      let cfg = Avp_pp.Control_model.default in
      let model = Avp_pp.Control_model.model cfg in
      let graph = State_graph.enumerate model in
      let weigh ~src ~choice =
        Avp_pp.Control_model.instructions_of_edge cfg
          ~src:graph.State_graph.states.(src)
          ~choice:(Model.choice_of_index model choice)
      in
      let tours =
        Tour_gen.generate
          ?instr_limit:(Some (Option.value ~default:500 limit))
          ~instructions_of_edge:weigh graph
      in
      let fuzz_stimuli =
        Option.map
          (fun budget ->
            let fprogress = make_progress ~total:budget "fuzz" in
            let r =
              Avp_fuzz.Isa_fuzz.run ~progress:fprogress
                ~config:
                  {
                    Avp_fuzz.Isa_fuzz.default_config with
                    Avp_fuzz.Isa_fuzz.budget;
                    seed;
                  }
                cfg graph
            in
            Avp_obs.Progress.finish fprogress;
            Format.printf "fuzz: %d/%d candidates kept, %a@."
              (Array.length r.Avp_fuzz.Isa_fuzz.kept)
              r.Avp_fuzz.Isa_fuzz.executed Avp_harness.Coverage.pp
              r.Avp_fuzz.Isa_fuzz.coverage;
            Avp_fuzz.Isa_fuzz.stimuli r)
          fuzz
      in
      let progress = make_progress "validate" in
      let rows =
        Avp_harness.Campaign.table_2_1 ~seed ?domains ~progress
          ?fuzz:fuzz_stimuli ~cfg ~graph ~tours ()
      in
      Avp_obs.Progress.finish progress;
      let rows =
        match bug with
        | None -> rows
        | Some n ->
          List.filter
            (fun (r : Avp_harness.Campaign.bug_row) ->
              Avp_pp.Bugs.number r.Avp_harness.Campaign.bug = n)
            rows
      in
      Format.printf "%a" Avp_harness.Campaign.pp_rows rows;
      (* The waveform artifact replays a tour vector against the
         translated HDL form of the same control module. *)
      Option.iter
        (fun path ->
          let tr = load_translation "pp" None in
          let hg = State_graph.enumerate tr.Translate.model in
          let ht = Tour_gen.generate hg in
          let vecs = Avp_vectors.Replay.vectors tr ht in
          if Array.length vecs = 0 then
            Format.eprintf "vcd: no tour traces to dump@."
          else begin
            write_file path (Avp_vectors.Replay.dump_vcd tr vecs.(0));
            Format.eprintf "vcd: wrote %s@." path
          end)
        vcd;
      Option.iter
        (fun dir ->
          (* RTL arc coverage under the generated stimuli — the
             feedback signal the campaign's vectors aim to saturate. *)
          let stimuli = Avp_harness.Drive.of_traces ~seed cfg graph tours in
          let acc = Avp_harness.Coverage.create cfg graph in
          let cov_progress =
            make_progress ~total:(List.length stimuli) "coverage"
          in
          List.iter
            (fun s ->
              Avp_harness.Coverage.run acc s;
              Avp_obs.Progress.tick cov_progress)
            stimuli;
          Avp_obs.Progress.finish cov_progress;
          let cov = Avp_harness.Coverage.result acc in
          let class_counts =
            let counts =
              List.map (fun c -> (c, ref 0)) Avp_pp.Isa.all_classes
            in
            List.iter
              (fun (s : Avp_harness.Drive.stimulus) ->
                Array.iter
                  (fun i ->
                    match i with
                    | Avp_pp.Isa.Nop | Avp_pp.Isa.Halt -> ()
                    | i ->
                      incr (List.assoc (Avp_pp.Isa.classify i) counts))
                  s.Avp_harness.Drive.program)
              stimuli;
            counts
          in
          let bug_table =
            {
              Avp_obs.Report.table_title = "Table 2.1 — bug detection";
              header =
                [ "bug"; "generated"; "random"; "directed" ]
                @ (if fuzz_stimuli = None then [] else [ "fuzz" ]);
              rows =
                List.map
                  (fun (r : Avp_harness.Campaign.bug_row) ->
                    let cell (m : Avp_harness.Campaign.method_result) =
                      if m.Avp_harness.Campaign.detected then
                        Printf.sprintf "found (run %d)"
                          m.Avp_harness.Campaign.runs
                      else "not found"
                    in
                    [
                      Format.asprintf "%a" Avp_pp.Bugs.pp_id
                        r.Avp_harness.Campaign.bug;
                      cell r.Avp_harness.Campaign.generated;
                      cell r.Avp_harness.Campaign.random;
                      cell r.Avp_harness.Campaign.directed;
                    ]
                    @
                    match r.Avp_harness.Campaign.fuzz with
                    | Some f -> [ cell f ]
                    | None -> [])
                  rows;
            }
          in
          let class_table =
            {
              Avp_obs.Report.table_title =
                "Instruction classes in generated stimuli";
              header = [ "class"; "instructions" ];
              rows =
                List.map
                  (fun (c, n) ->
                    [ Avp_pp.Isa.class_name c; string_of_int !n ])
                  class_counts;
            }
          in
          let r =
            Avp_obs.Report.empty ~title:"avp validate report" ~design:"pp"
          in
          let r =
            {
              r with
              Avp_obs.Report.enum = Some (enum_section graph.State_graph.stats);
              tour = Some (tour_section tours.Tour_gen.stats);
              coverage = Some cov;
            }
          in
          let r = Avp_obs.Report.add_table r bug_table in
          let r = Avp_obs.Report.add_table r class_table in
          let r =
            Avp_obs.Report.add_note r
              (Printf.sprintf "seed %d, instruction limit %d" seed
                 (Option.value ~default:500 limit))
          in
          write_report r ~dir)
        report_dir;
      0
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
    Arg.(
      value
      & opt (some int) None
      & info [ "bug" ] ~docv:"N" ~doc:"Restrict to one Table 2.1 bug (1-6).")
  in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"BUDGET"
          ~doc:"Also score a coverage-guided instruction-level fuzz corpus \
                grown with $(docv) candidate executions as a fourth \
                method.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Run the Protocol Processor validation campaign (Table 2.1).")
    Term.(
      const run $ file_arg $ bug_arg $ limit_arg $ domains_arg $ seed_arg
      $ fuzz_arg $ trace_arg $ metrics_arg $ vcd_arg $ report_arg)

let lint_cmd =
  let open Avp_analysis in
  let run file top json only ignored strict fsm absint rules_md =
    if rules_md then begin
      print_string (Analysis.rules_markdown ());
      0
    end
    else
    match
      List.find_opt
        (fun r -> not (Analysis.is_rule r))
        (only @ ignored)
    with
    | Some r ->
      Format.eprintf "avp lint: unknown rule '%s' (see avp lint --help)@." r;
      2
    | None ->
      let fname = if file = "pp" then "pp_control.v" else file in
      let findings =
        if file <> "pp" && Filename.check_suffix file ".sml" then begin
          (* FSM models: guard lint plus the abstract model checks. *)
          let src = read_file file in
          let guards =
            List.map
              (fun (line, rule, msg) ->
                Finding.make
                  ~loc:{ Ast.line; col = 0 }
                  Finding.Warning rule msg)
              (Sml.lint src)
          in
          let model = Analysis.run_model ~only ~ignore:ignored (Sml.parse src) in
          Finding.sort (Analysis.filter ~only ~ignore:ignored guards @ model)
        end
        else begin
          let src = source file in
          let elab = Elab.elaborate ?top (Parser.parse src) in
          let netlist = Analysis.run ~only ~ignore:ignored ~absint elab in
          let fsm_findings =
            if not fsm then []
            else
              try
                Analysis.run_model ~only ~ignore:ignored
                  (Translate.translate elab).Translate.model
              with e ->
                Format.eprintf "avp lint: fsm checks skipped: %s@."
                  (Printexc.to_string e);
                []
          in
          Finding.sort (netlist @ fsm_findings)
        end
      in
      if json then print_string (Finding.to_json ~file:fname findings)
      else if findings = [] then Format.printf "clean@."
      else
        List.iter
          (fun f -> Format.printf "%a@." (Finding.pp ~file:fname) f)
          findings;
      Analysis.exit_code ~strict findings
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit findings as a JSON object (the machine-checkable gate \
                format used by CI).")
  in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"RULE"
          ~doc:"Report only findings of $(docv); repeatable.")
  in
  let ignore_arg =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"RULE"
          ~doc:"Drop findings of $(docv); repeatable.  $(b,--only) wins when \
                both are given.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit with code 1 when warnings remain.")
  in
  let fsm_arg =
    Arg.(
      value & flag
      & info [ "fsm" ]
          ~doc:"Also run the FSM model checks on a Verilog design \
                (requires avp state annotations; .sml inputs always get \
                them).")
  in
  let absint_arg =
    Arg.(
      value & flag
      & info [ "absint" ]
          ~doc:"Also run the abstract-interpretation fixpoint and report \
                its invariant-backed findings (constant-net, \
                unreachable-branch, redundant-reset).  Verilog designs \
                only.")
  in
  let rules_md_arg =
    Arg.(
      value & flag
      & info [ "rules-md" ]
          ~doc:"Print the rules table as GitHub markdown (the README \
                embeds it; a test asserts they match) and exit.")
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
  let open Avp_analysis in
  let run file top json =
    let fname = if file = "pp" then "pp_control.v" else file in
    let src = source file in
    let elab = Elab.elaborate ?top (Parser.parse src) in
    let inv = Absint.analyze elab in
    let n = Array.length elab.Elab.nets in
    (* Every net the analysis proved something about, id order: the
       output is deterministic and independent of -j anywhere. *)
    let rows = ref [] and constants = ref 0 in
    for id = n - 1 downto 0 do
      if not inv.Absint.tops.(id) then begin
        let a = inv.Absint.steady.(id) in
        if Absint.is_const a then incr constants;
        let r = inv.Absint.run.(id) in
        let show_run = inv.Absint.run_distinct && Absint.interesting r in
        if Absint.interesting a || show_run then
          rows :=
            ( elab.Elab.nets.(id).Elab.name,
              a.Absint.w,
              Absint.av_str a,
              if show_run then Some (Absint.av_str r) else None )
            :: !rows
      end
    done;
    let rows = !rows in
    if json then begin
      let b = Buffer.create 1024 in
      let str s = "\"" ^ Finding.json_escape s ^ "\"" in
      Buffer.add_string b
        (Printf.sprintf
           "{\n  \"design\": %s,\n  \"run_distinct\": %b,\n  \
            \"proven_constants\": %d,\n  \"nets\": [" (str fname)
           inv.Absint.run_distinct !constants);
      List.iteri
        (fun i (name, w, all_s, run_s) ->
          Buffer.add_string b (if i = 0 then "\n" else ",\n");
          Buffer.add_string b
            (Printf.sprintf
               "    { \"net\": %s, \"width\": %d, \"steady\": %s%s }"
               (str name) w (str all_s)
               (match run_s with
                | None -> ""
                | Some s -> Printf.sprintf ", \"run\": %s" (str s))))
        rows;
      Buffer.add_string b "\n  ]\n}\n";
      print_string (Buffer.contents b)
    end
    else begin
      Format.printf "%s: %d nets, %d with proven invariants, %d constant@."
        fname n (List.length rows) !constants;
      if not inv.Absint.run_distinct then
        Format.printf
          "(no clock/reset directives: post-reset analysis not run)@.";
      List.iter
        (fun (name, _, all_s, run_s) ->
          match run_s with
          | Some rs when rs <> all_s ->
            Format.printf "%-24s %s  (post-reset: %s)@." name all_s rs
          | _ -> Format.printf "%-24s %s@." name all_s)
        rows
    end;
    0
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the invariants as a JSON object (the CI artifact \
                format).")
  in
  Cmd.v
    (Cmd.info "invariants"
       ~doc:"Print the abstract interpreter's proven per-net invariants: \
             known bits of both planes, value ranges, and the post-reset \
             refinement when clock/reset directives are present.")
    Term.(const run $ file_arg $ top_arg $ json_arg)

let replay_cmd =
  let run file top limit domains trace metrics profile vcd report_dir =
    with_obs ~profile ~trace ~metrics @@ fun () ->
    let tr = load_translation file top in
    let g = State_graph.enumerate tr.Translate.model in
    let t = Tour_gen.generate ?instr_limit:limit g in
    let vecs = Avp_vectors.Replay.vectors tr t in
    Option.iter
      (fun path ->
        if Array.length vecs = 0 then
          Format.eprintf "vcd: no tour traces to dump@."
        else begin
          write_file path (Avp_vectors.Replay.dump_vcd tr vecs.(0));
          Format.eprintf "vcd: wrote %s@." path
        end)
      vcd;
    let progress =
      make_progress ~total:(Array.length vecs) "replay"
    in
    let outcome =
      Avp_vectors.Replay.check ?domains ~progress ~vectors:vecs tr g t
    in
    Avp_obs.Progress.finish progress;
    let code, replay_sec =
      match outcome with
      | Ok stats ->
        Format.printf
          "replayed %d traces / %d cycles: every transition matched@."
          stats.Avp_vectors.Replay.traces stats.Avp_vectors.Replay.cycles;
        ( 0,
          {
            Avp_obs.Report.replay_traces = stats.Avp_vectors.Replay.traces;
            replay_cycles = stats.Avp_vectors.Replay.cycles;
            ok = true;
            mismatch = None;
          } )
      | Error m ->
        Format.printf "MISMATCH: %a@." Avp_vectors.Replay.pp_mismatch m;
        ( 1,
          {
            Avp_obs.Report.replay_traces = Array.length vecs;
            replay_cycles = 0;
            ok = false;
            mismatch =
              Some (Format.asprintf "%a" Avp_vectors.Replay.pp_mismatch m);
          } )
    in
    Option.iter
      (fun dir ->
        let r =
          Avp_obs.Report.empty ~title:"avp replay report" ~design:file
        in
        let r =
          {
            r with
            Avp_obs.Report.enum = Some (enum_section g.State_graph.stats);
            tour = Some (tour_section t.Tour_gen.stats);
            replay = Some replay_sec;
          }
        in
        write_report r ~dir)
      report_dir;
    code
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Generate tours and replay their vectors against the design, \
             checking every predicted transition.")
    Term.(
      const run $ file_arg $ top_arg $ limit_arg $ domains_arg $ trace_arg
      $ metrics_arg $ profile_arg $ vcd_arg $ report_arg)

let profile_cmd =
  let run trace_file folded flame json_out normalize =
    match Avp_obs.Prof.read_trace trace_file with
    | Error msg ->
      Format.eprintf "avp profile: %s@." msg;
      2
    | Ok [] ->
      Format.eprintf "avp profile: %s holds no decodable events@." trace_file;
      2
    | Ok evs ->
      let p = Avp_obs.Prof.of_events evs in
      Option.iter
        (fun path ->
          write_file path (Avp_obs.Prof.folded_string p);
          Format.eprintf "folded: wrote %s@." path)
        folded;
      Option.iter
        (fun path ->
          write_file path (Avp_obs.Prof.flame_html p);
          Format.eprintf "flame: wrote %s@." path)
        flame;
      (match json_out with
       | Some path ->
         write_file path (Avp_obs.Prof.to_json ~normalize p);
         Format.eprintf "profile: wrote %s@." path
       | None -> Format.printf "%a" Avp_obs.Prof.pp p);
      0
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
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Write collapsed stacks ('frame;frame self_ns' lines) for \
                inferno, speedscope or flamegraph.pl.")
  in
  let flame_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:"Write a self-contained static HTML flame (icicle) view.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full profile as JSON instead of printing the \
                text report.")
  in
  let normalize_arg =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:"With $(b,--json): keep only the run-invariant skeleton \
                (per-label counts, no times or domains) — byte-identical \
                across $(b,-j) for deterministic work.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Analyze a recorded trace: per-span self/total time and \
             percentiles, collapsed-stack flamegraph export, and the \
             parallel-efficiency report (per-domain utilization, \
             concurrency, serial fraction) of a multi-domain run.")
    Term.(
      const run $ trace_file_arg $ folded_out_arg $ flame_out_arg
      $ json_out_arg $ normalize_arg)

let errata_cmd =
  let run () =
    List.iter
      (fun (r : Avp_errata.Errata.row) ->
        Format.printf "%-34s %4d %6.1f%%@." r.Avp_errata.Errata.label
          r.Avp_errata.Errata.bugs r.Avp_errata.Errata.percent)
      (Avp_errata.Errata.table ());
    0
  in
  Cmd.v
    (Cmd.info "errata" ~doc:"Print the MIPS R4000 errata classification.")
    Term.(const run $ const ())

let main =
  let doc = "architecture validation for processors (ISCA 1995)" in
  Cmd.group
    (Cmd.info "avp" ~version:"1.0.0" ~doc)
    [
      translate_cmd; enumerate_cmd; tour_cmd; vectors_cmd; replay_cmd;
      lint_cmd; invariants_cmd; validate_cmd; mutate_cmd; fuzz_cmd;
      profile_cmd; errata_cmd;
    ]

(* Malformed or unreadable input is the user's error, not an internal
   one: report it against the source with its position and exit 2
   (lint's error code).  Anything else is a bug and keeps cmdliner's
   internal-error exit 125, so it never passes for a finding. *)
let () =
  let fail fmt =
    Format.kasprintf (fun msg -> Format.eprintf "%s@." msg; exit 2) fmt
  in
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception (Lexer.Error (msg, loc) | Parser.Error (msg, loc)) ->
    fail "%s:%d:%d: %s" !source_name loc.Ast.line loc.Ast.col msg
  | exception (Elab.Error msg | Translate.Unsupported msg) ->
    fail "%s: %s" !source_name msg
  | exception Sml.Error (msg, line) -> fail "%s:%d: %s" !source_name line msg
  | exception Sim.Comb_loop net ->
    fail "%s: combinational loop through net %s does not settle (see avp \
          lint %s)"
      !source_name net !source_name
  | exception State_graph.Too_many_states n ->
    fail "%s: more than %d reachable states" !source_name n
  | exception Sys_error msg -> fail "%s" msg
  | exception e ->
    let bt = Printexc.get_backtrace () in
    Format.eprintf "avp: internal error, uncaught exception:@\n%s@\n%s@?"
      (Printexc.to_string e) bt;
    exit Cmd.Exit.internal_error
