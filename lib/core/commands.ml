open Avp_hdl
open Avp_fsm
open Avp_enum
module Tour_gen = Avp_tour.Tour_gen
module Obs = Avp_obs.Obs
module Prof = Avp_obs.Prof
module Report = Avp_obs.Report
module Progress = Avp_obs.Progress
module Coverage = Avp_obs.Coverage
module Replay = Avp_vectors.Replay

type stream = Stdout | Stderr

type 'a t = {
  value : 'a option;
  text : (stream * string) list;
  code : int;
}

let print r =
  List.iter
    (fun (stream, s) ->
      let oc = if stream = Stdout then stdout else stderr in
      output_string oc s;
      flush oc)
    r.text;
  r.code

(* The text a command prints, newest first. *)
type console = { mutable rev : (stream * string) list }

let out c fmt = Format.kasprintf (fun s -> c.rev <- (Stdout, s) :: c.rev) fmt
let err c fmt = Format.kasprintf (fun s -> c.rev <- (Stderr, s) :: c.rev) fmt

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let wrote c what path = err c "%s: wrote %s@." what path

let save c what path contents =
  write_file path contents;
  wrote c what path

(* Install a tracer when --trace/--metrics/--profile was given.  The
   artifacts are written on the way out even when the command exits
   nonzero, so a failing gate still leaves its trace behind. *)
let with_obs c ?trace ?metrics ?profile f =
  match (trace, metrics, profile) with
  | None, None, None -> f ()
  | _ ->
    let t = Obs.create ~gc:(profile <> None) () in
    let r =
      Obs.with_tracer t (fun () ->
          let r = f () in
          Obs.sample_gc ();
          r)
    in
    let dump what write = Option.iter (fun p -> write t p; wrote c what p) in
    dump "trace" Obs.write_trace trace;
    dump "metrics" Obs.write_metrics metrics;
    Option.iter
      (fun p ->
        let prof = Prof.of_tracer t in
        if p = "-" then err c "%a" Prof.pp prof
        else save c "profile" p (Prof.to_json prof))
      profile;
    r

(* Run a command body: [body] returns its value and exit code.  Bad
   input in [file] ends the command with its message and exit 2, any
   other exception (a bug) with exit 125, each after whatever the
   command printed before. *)
let run ?trace ?metrics ?profile file body =
  let c = { rev = [] } in
  let value, code =
    match
      Front.guard file (fun () ->
          with_obs c ?trace ?metrics ?profile (fun () -> body c))
    with
    | Ok r -> r
    | Error msg ->
      err c "%s@." msg;
      (None, 2)
    | exception e ->
      let bt = Printexc.get_backtrace () in
      err c "avp: internal error, uncaught exception:@\n%s@\n%s@?"
        (Printexc.to_string e) bt;
      (None, 125)
  in
  { value; text = List.rev c.rev; code }

(* Periodic stderr progress, shown only on a TTY and never under
   --json (machine consumers own stdout; stderr stays quiet too). *)
let meter ?(json = false) ?total label =
  Progress.create
    ~enabled:((not json) && Progress.stderr_is_tty ())
    ?total ~label ()

let metered ?json ?total label f =
  let progress = meter ?json ?total label in
  let r = f progress in
  Progress.finish progress;
  r

(* The unified report of a run, with the in-process profile embedded
   when [profile] (the run passed --profile). *)
let write_report c ~profile ~title ~design ~(graph : State_graph.t)
    ?(tours : Tour_gen.t option) ?coverage ?replay ?mutation ?fuzz
    ?(tables = []) ?note dir =
  let profile =
    match (profile, Obs.current ()) with
    | true, Some t ->
      Obs.sample_gc ();
      Some (Prof.of_tracer t)
    | _ -> None
  in
  Report.write ~dir
    {
      Report.title;
      design;
      enum = Some (State_graph.report_section graph.State_graph.stats);
      tour =
        Option.map (fun t -> Tour_gen.report_section t.Tour_gen.stats) tours;
      coverage;
      replay;
      mutation;
      fuzz;
      profile;
      tables;
      notes = Option.to_list note;
    };
  err c "report: wrote %s/report.json and %s/report.html@." dir dir

(* The waveform of the first tour trace's vectors replayed against the
   design, force/release commands annotated. *)
let dump_vcd c path tr (vectors : Avp_vectors.Vector.t array) =
  if Array.length vectors = 0 then err c "vcd: no tour traces to dump@."
  else save c "vcd" path (Replay.dump_vcd tr vectors.(0))

let translate ?top ~murphi file =
  run file @@ fun c ->
  let tr = Front.translation ?top file in
  let m = tr.Translate.model in
  out c
    "translated %s: %d state vars (%d bits), %d choice vars (%d \
     combinations)@."
    file
    (Array.length m.Model.state_vars)
    (Model.state_bits m)
    (Array.length m.Model.choice_vars)
    (Model.num_choices m);
  List.iter
    (fun l -> out c "latch folded into state: %a@." Latch.pp_latch l)
    tr.Translate.latches;
  if murphi then out c "%s" (Murphi.emit tr);
  (Some tr, 0)

let enumerate ?top ~all_conditions ?dot ?trace ?metrics ?profile file =
  run ?trace ?metrics ?profile file @@ fun c ->
  let g =
    metered "enumerate" (fun progress ->
        State_graph.enumerate ~all_conditions ~progress (Front.model ?top file))
  in
  out c "%a@." State_graph.pp_stats g.State_graph.stats;
  (match State_graph.absorbing_states g with
   | [] -> ()
   | dead ->
     out c
       "WARNING: %d absorbing state(s) — the machine can deadlock; tours \
        exercise their self-loops but cannot flag them@."
       (List.length dead));
  Option.iter
    (fun path ->
      let oc = open_out path in
      Format.fprintf (Format.formatter_of_out_channel oc) "%a@."
        State_graph.pp_dot g;
      close_out oc;
      out c "wrote %s@." path)
    dot;
  (Some g, 0)

let tour ?top ~all_conditions ?limit ?trace ?metrics file =
  run ?trace ?metrics file @@ fun c ->
  let g, t =
    Front.tours ~all_conditions ?instr_limit:limit (Front.model ?top file)
  in
  out c "%a@." Tour_gen.pp_stats t.Tour_gen.stats;
  out c "covers all arcs: %b@." (Tour_gen.covers_all_edges g t);
  (Some (g, t), 0)

let vectors ?top ?limit ~out:dir file =
  run file @@ fun c ->
  let tr = Front.translation ?top file in
  let _, t = Front.tours ?instr_limit:limit tr.Translate.model in
  let vecs = Replay.vectors tr t in
  Report.mkdir_p dir;
  Array.iteri
    (fun i v ->
      write_file
        (Printf.sprintf "%s/trace%04d.vec" dir i)
        (Avp_vectors.Vector.to_string v))
    vecs;
  out c "wrote %d vector files to %s@." (Array.length vecs) dir;
  (Some vecs, 0)

let replay ?top ?limit ?trace ?metrics ?profile ?vcd ?report file =
  run ?trace ?metrics ?profile file @@ fun c ->
  let r =
    Flow.run ?instr_limit:limit
      ~progress:(fun total -> meter ~total "replay")
      (Front.elaborate ?top file)
  in
  Option.iter (fun p -> dump_vcd c p r.Flow.translation r.Flow.vectors) vcd;
  let code, traces, cycles, mismatch =
    match r.Flow.replay with
    | Ok s ->
      out c "replayed %d traces / %d cycles: every transition matched@."
        s.Replay.traces s.Replay.cycles;
      (0, s.Replay.traces, s.Replay.cycles, None)
    | Error m ->
      let m = Format.asprintf "%a" Replay.pp_mismatch m in
      out c "MISMATCH: %s@." m;
      (1, Array.length r.Flow.vectors, 0, Some m)
  in
  Option.iter
    (write_report c ~profile:(profile <> None) ~title:"avp replay report"
       ~design:file ~graph:r.Flow.graph ~tours:r.Flow.tours
       ~replay:
         { Report.replay_traces = traces; replay_cycles = cycles;
           ok = code = 0; mismatch })
    report;
  (Some r, code)

let mutate ?top ~ops ~seed ?budget ~json ?limit ?gate ~engine ?trace ?metrics
    ?profile ?report file =
  let open Avp_mutate in
  run ?trace ?metrics ?profile file @@ fun c ->
  let src = Front.read file in
  let names =
    List.concat_map (String.split_on_char ',') ops
    |> List.filter (fun s -> s <> "")
  in
  match
    List.partition_map
      (fun n ->
        match Op.family_of_name n with Some f -> Left f | None -> Right n)
      names
  with
  | _, bad :: _ ->
    err c "avp mutate: unknown operator family '%s' (known: %s)@." bad
      (String.concat ", " (List.map Op.family_name Op.all_families));
    (None, 2)
  | families, [] ->
    let families = match families with [] -> None | l -> Some l in
    let design, tr = Front.translate ?top src in
    let graph, tours = Front.tours ?instr_limit:limit tr.Translate.model in
    let r =
      metered ~json "mutate" (fun progress ->
          Campaign.run ?families ~seed ?budget ?top ~progress ~engine ~design
            ~tr ~graph ~tours ())
    in
    if json then out c "%s" (Campaign.to_json r)
    else out c "%a" Campaign.pp_report r;
    Option.iter
      (write_report c ~profile:(profile <> None) ~title:"avp mutation report"
         ~design:r.Campaign.design ~graph ~tours
         ~mutation:(Campaign.report_section r)
         ~note:
           (Printf.sprintf "seed %d, %d mutants" r.Campaign.seed
              r.Campaign.total))
      report;
    let fail floor what =
      err c "avp mutate: GATE FAILED: tour kill-rate %.4f below the %s %.4f@."
        r.Campaign.tour_rate what floor;
      1
    in
    let code =
      match gate with
      | Some _ when r.Campaign.tour_rate < r.Campaign.random_rate ->
        fail r.Campaign.random_rate "random baseline"
      | Some floor when r.Campaign.tour_rate < floor ->
        fail floor "committed floor"
      | _ -> 0
    in
    (Some r, code)

let fuzz ?top ~seed ~budget ?batch ~engine ?corpus ?replay ?mutants ~json
    ~gate ?trace ?metrics ?profile ?report file =
  let module J = Avp_obs.Json in
  let module Loop = Avp_fuzz.Loop in
  let module Compare = Avp_fuzz.Compare in
  run ?trace ?metrics ?profile file @@ fun c ->
  let design, tr = Front.translate ?top (Front.read file) in
  let graph = State_graph.enumerate tr.Translate.model in
  let config =
    {
      Loop.default_config with
      Loop.seed;
      budget;
      engine;
      batch = Option.value ~default:Loop.default_config.Loop.batch batch;
    }
  in
  let outcome =
    match replay with
    | None ->
      Ok
        (metered ~json ~total:budget "fuzz" (fun progress ->
             Loop.run ~progress ~config tr graph))
    | Some path ->
      Result.bind (Avp_fuzz.Corpus.load ~file:path) (fun corpus ->
          let total = Array.length corpus.Avp_fuzz.Corpus.entries in
          metered ~json ~total "fuzz-replay" (fun progress ->
              Loop.replay ~progress ~config corpus tr graph))
  in
  match outcome with
  | Error msg ->
    err c "avp fuzz: %s@." msg;
    (None, 2)
  | Ok result ->
    Option.iter
      (fun path ->
        Avp_fuzz.Corpus.save (Loop.corpus result tr) ~file:path;
        wrote c "corpus" path)
      corpus;
    (* The generator comparison runs only for a growing run — a replay
       is the byte-identity check, kept cheap. *)
    let cmp =
      if replay <> None then None
      else
        let tours = Tour_gen.generate graph in
        metered ~json "compare" (fun progress ->
            Some
              (Compare.run ~seed ?mutant_budget:mutants ~progress ~design
                 ~tr ~graph ~tours ~fuzz:result ()))
    in
    let cov = Coverage.summary result.Loop.coverage in
    let pairs = Coverage.pairs_seen result.Loop.coverage in
    if json then begin
      let kept (k : Loop.kept) =
        let g = k.Loop.gain in
        J.Obj
          [
            ("round", J.Int k.Loop.round);
            ("length", J.Int (Array.length k.Loop.entry));
            ( "gain",
              J.Obj
                [
                  ("states", J.Int g.Coverage.c_states);
                  ("arcs", J.Int g.Coverage.c_arcs);
                  ("pairs", J.Int g.Coverage.c_pairs);
                ] );
          ]
      in
      let fields =
        [
          ("design", J.Str result.Loop.design);
          ("mode", J.Str (if replay = None then "run" else "replay"));
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
                ("states", J.Int cov.Coverage.states_seen);
                ("states_total", J.Int cov.Coverage.states_total);
                ("arcs", J.Int cov.Coverage.arcs_seen);
                ("arcs_total", J.Int cov.Coverage.arcs_total);
                ("pairs", J.Int pairs);
                ("unmapped", J.Int cov.Coverage.unmapped);
              ] );
          ("kept", J.List (Array.to_list (Array.map kept result.Loop.kept)));
        ]
        @
        match cmp with
        | Some cmp -> [ ("compare", Compare.json_value cmp) ]
        | None -> []
      in
      out c "%s\n" (J.to_string_pretty (J.Obj fields))
    end
    else begin
      out c "fuzz: %s %d rounds, %d/%d candidates kept, %d explore cycles@."
        result.Loop.design result.Loop.rounds
        (Array.length result.Loop.kept)
        result.Loop.executed result.Loop.explore_cycles;
      out c "coverage: %a, %d (state, input-class) pairs@." Coverage.pp cov
        pairs;
      Option.iter (out c "%a" Compare.pp) cmp
    end;
    Option.iter
      (write_report c ~profile:(profile <> None) ~title:"avp fuzz report"
         ~design:result.Loop.design ~graph ~coverage:cov
         ?fuzz:(Option.map (Compare.report_section result) cmp)
         ~note:
           (Printf.sprintf "seed %d, budget %d, batch %d" seed
              config.Loop.budget config.Loop.batch))
      report;
    let fail what f r =
      err c "avp fuzz: GATE FAILED: fuzz %s %d below the random baseline %d@."
        what f r;
      1
    in
    let code =
      match cmp with
      | _ when not gate -> 0
      | None ->
        err c
          "avp fuzz: --gate needs the generator comparison (not available \
           under --replay)@.";
        2
      | Some cmp ->
        let f = Option.get (Compare.find_method cmp "fuzz")
        and r = Option.get (Compare.find_method cmp "random") in
        if f.Compare.m_arcs < r.Compare.m_arcs then
          fail "arc coverage" f.Compare.m_arcs r.Compare.m_arcs
        else if f.Compare.m_killed < r.Compare.m_killed then
          fail "kills" f.Compare.m_killed r.Compare.m_killed
        else 0
    in
    (Some (result, cmp), code)

let validate ?file ?bug ?limit ~seed ?fuzz ?trace ?metrics ?vcd ?report () =
  let module Campaign = Avp_harness.Campaign in
  let module Isa = Avp_pp.Isa in
  let known n = List.mem n (List.map Avp_pp.Bugs.number Avp_pp.Bugs.all_ids) in
  run "pp" @@ fun c ->
  match (file, bug) with
  | Some f, _ when f <> "pp" ->
    err c
      "avp validate: unknown design '%s' — only the built-in 'pp' Protocol \
       Processor campaign is supported@."
      f;
    (None, 2)
  | _, Some n when not (known n) ->
    err c "avp validate: unknown bug %d (1-6)@." n;
    (None, 2)
  | _ ->
    (* Installed only now: a rejected design or bug writes no trace. *)
    with_obs c ?trace ?metrics @@ fun () ->
    let limit = Option.value ~default:500 limit in
    let cfg = Avp_pp.Control_model.default in
    let model = Avp_pp.Control_model.model cfg in
    let graph = State_graph.enumerate model in
    let weigh ~src ~choice =
      Avp_pp.Control_model.instructions_of_edge cfg
        ~src:graph.State_graph.states.(src)
        ~choice:(Model.choice_of_index model choice)
    in
    let tours =
      Tour_gen.generate ~instr_limit:limit ~instructions_of_edge:weigh graph
    in
    let fuzz_stimuli =
      Option.map
        (fun budget ->
          let module Isa_fuzz = Avp_fuzz.Isa_fuzz in
          let r =
            metered ~total:budget "fuzz" (fun progress ->
                Isa_fuzz.run ~progress
                  ~config:{ Isa_fuzz.default_config with Isa_fuzz.budget; seed }
                  cfg graph)
          in
          out c "fuzz: %d/%d candidates kept, %a@."
            (Array.length r.Isa_fuzz.kept)
            r.Isa_fuzz.executed Avp_harness.Coverage.pp r.Isa_fuzz.coverage;
          Isa_fuzz.stimuli r)
        fuzz
    in
    let rows =
      metered "validate" (fun progress ->
          Campaign.table_2_1 ~seed ~progress ?fuzz:fuzz_stimuli ~cfg ~graph
            ~tours ())
      |> List.filter (fun (r : Campaign.bug_row) ->
             bug = None || bug = Some (Avp_pp.Bugs.number r.Campaign.bug))
    in
    out c "%a" Campaign.pp_rows rows;
    (* The waveform replays a tour vector against the translated HDL
       form of the same control module. *)
    Option.iter
      (fun path ->
        let tr = Front.translation "pp" in
        let _, t = Front.tours tr.Translate.model in
        dump_vcd c path tr (Replay.vectors tr t))
      vcd;
    Option.iter
      (fun dir ->
        (* RTL arc coverage under the generated stimuli — the feedback
           signal the campaign's vectors aim to saturate. *)
        let stimuli = Avp_harness.Drive.of_traces ~seed cfg graph tours in
        let acc = Avp_harness.Coverage.create cfg graph in
        metered ~total:(List.length stimuli) "coverage" (fun progress ->
            List.iter
              (fun s ->
                Avp_harness.Coverage.run acc s;
                Progress.tick progress)
              stimuli);
        let counts = List.map (fun cls -> (cls, ref 0)) Isa.all_classes in
        List.iter
          (fun (s : Avp_harness.Drive.stimulus) ->
            Array.iter
              (function
                | Isa.Nop | Isa.Halt -> ()
                | i -> incr (List.assoc (Isa.classify i) counts))
              s.Avp_harness.Drive.program)
          stimuli;
        let cell (m : Campaign.method_result) =
          if m.Campaign.detected then
            Printf.sprintf "found (run %d)" m.Campaign.runs
          else "not found"
        in
        let bug_table =
          {
            Report.table_title = "Table 2.1 — bug detection";
            header =
              [ "bug"; "generated"; "random"; "directed" ]
              @ if fuzz_stimuli = None then [] else [ "fuzz" ];
            rows =
              List.map
                (fun (r : Campaign.bug_row) ->
                  [
                    Format.asprintf "%a" Avp_pp.Bugs.pp_id r.Campaign.bug;
                    cell r.Campaign.generated;
                    cell r.Campaign.random;
                    cell r.Campaign.directed;
                  ]
                  @ Option.to_list (Option.map cell r.Campaign.fuzz))
                rows;
          }
        in
        let class_table =
          {
            Report.table_title = "Instruction classes in generated stimuli";
            header = [ "class"; "instructions" ];
            rows =
              List.map
                (fun (cls, n) -> [ Isa.class_name cls; string_of_int !n ])
                counts;
          }
        in
        write_report c ~profile:false ~title:"avp validate report" ~design:"pp"
          ~graph ~tours
          ~coverage:(Avp_harness.Coverage.result acc)
          ~tables:[ bug_table; class_table ]
          ~note:(Printf.sprintf "seed %d, instruction limit %d" seed limit)
          dir)
      report;
    (Some rows, 0)

let lint ?top ~json ~only ~ignored ~strict ~fsm ~absint ~rules_md file =
  let open Avp_analysis in
  run file @@ fun c ->
  if rules_md then begin
    out c "%s" (Analysis.rules_markdown ());
    (Some [], 0)
  end
  else
    match
      List.find_opt (fun r -> not (Analysis.is_rule r)) (only @ ignored)
    with
    | Some r ->
      err c "avp lint: unknown rule '%s' (see avp lint --help)@." r;
      (None, 2)
    | None ->
      let fname = if file = "pp" then "pp_control.v" else file in
      let findings =
        if Filename.check_suffix file ".sml" then begin
          (* FSM models: guard lint plus the abstract model checks. *)
          let src = Front.read file in
          let guards =
            List.map
              (fun (line, rule, msg) ->
                Finding.make ~loc:{ Ast.line; col = 0 } Finding.Warning
                  rule msg)
              (Sml.lint src)
          in
          let model =
            Analysis.run_model ~only ~ignore:ignored (Sml.parse src)
          in
          Finding.sort (Analysis.filter ~only ~ignore:ignored guards @ model)
        end
        else begin
          let elab = Front.elaborate ?top file in
          let netlist = Analysis.run ~only ~ignore:ignored ~absint elab in
          let fsm_findings =
            if not fsm then []
            else
              match
                Front.guard file (fun () ->
                    Analysis.run_model ~only ~ignore:ignored
                      (Translate.translate elab).Translate.model)
              with
              | Ok findings -> findings
              | Error msg ->
                err c "avp lint: fsm checks skipped: %s@." msg;
                []
          in
          Finding.sort (netlist @ fsm_findings)
        end
      in
      if json then out c "%s" (Finding.to_json ~file:fname findings)
      else if findings = [] then out c "clean@."
      else
        List.iter (fun f -> out c "%a@." (Finding.pp ~file:fname) f) findings;
      (Some findings, Analysis.exit_code ~strict findings)

let invariants ?top ~json file =
  let open Avp_analysis in
  run file @@ fun c ->
  let fname = if file = "pp" then "pp_control.v" else file in
  let elab = Front.elaborate ?top file in
  let inv = Absint.analyze elab in
  let n = Array.length elab.Elab.nets in
  (* Every net the analysis proved something about, id order: the
     output is deterministic. *)
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
    let str s = "\"" ^ Finding.json_escape s ^ "\"" in
    let net (name, w, all_s, run_s) =
      Printf.sprintf "\n    { \"net\": %s, \"width\": %d, \"steady\": %s%s }"
        (str name) w (str all_s)
        (Option.fold ~none:"" ~some:(fun s -> ", \"run\": " ^ str s) run_s)
    in
    out c
      "{\n  \"design\": %s,\n  \"run_distinct\": %b,\n  \"proven_constants\": \
       %d,\n  \"nets\": [%s\n  ]\n}\n"
      (str fname) inv.Absint.run_distinct !constants
      (String.concat "," (List.map net rows))
  end
  else begin
    out c "%s: %d nets, %d with proven invariants, %d constant@." fname n
      (List.length rows) !constants;
    if not inv.Absint.run_distinct then
      out c "(no clock/reset directives: post-reset analysis not run)@.";
    List.iter
      (fun (name, _, all_s, run_s) ->
        match run_s with
        | Some rs when rs <> all_s ->
          out c "%-24s %s  (post-reset: %s)@." name all_s rs
        | _ -> out c "%-24s %s@." name all_s)
      rows
  end;
  (Some inv, 0)

let profile ?folded ?flame ?json ~normalize trace_file =
  run trace_file @@ fun c ->
  match Prof.read_trace trace_file with
  | Error msg ->
    err c "avp profile: %s@." msg;
    (None, 2)
  | Ok [] ->
    err c "avp profile: %s holds no decodable events@." trace_file;
    (None, 2)
  | Ok evs ->
    let p = Prof.of_events evs in
    Option.iter
      (fun path -> save c "folded" path (Prof.folded_string p))
      folded;
    Option.iter (fun path -> save c "flame" path (Prof.flame_html p)) flame;
    (match json with
     | Some path -> save c "profile" path (Prof.to_json ~normalize p)
     | None -> out c "%a" Prof.pp p);
    (Some p, 0)

let errata () =
  let module E = Avp_errata.Errata in
  run "avp" @@ fun c ->
  let rows = E.table () in
  List.iter
    (fun (r : E.row) ->
      out c "%-34s %4d %6.1f%%@." r.E.label r.E.bugs r.E.percent)
    rows;
  (Some rows, 0)
