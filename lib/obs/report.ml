(* Unified coverage reports.

   One [t] aggregates what the paper's tables report — reachable
   states and toured transitions, vector counts and replay cycles,
   arc coverage, and mutation scores — and renders deterministically
   as JSON (machine gate) and as a self-contained HTML page (human
   artifact).  Every section is optional so each CLI command fills in
   what it actually computed. *)

type enum_section = {
  num_states : int;
  num_edges : int;
  state_bits : int;
  enum_elapsed_s : float;
  levels : int;
}

type tour_section = {
  traces : int;
  traversals : int;
  instructions : int;
  longest_edges : int;
  longest_instructions : int;
  limit_hits : int;
}

type replay_section = {
  replay_traces : int;
  replay_cycles : int;
  ok : bool;
  mismatch : string option;
}

type mutation_family = {
  family : string;
  fam_total : int;
  fam_candidates : int;
  fam_killed_tour : int;
  fam_killed_random : int;
  fam_equivalent : int;
  fam_survived : int;
  fam_rejected : int;
}

type mutation_section = {
  mutants : int;
  candidates : int;
  tour_killed : int;
  tour_rate : float;
  random_killed : int;
  random_rate : float;
  families : mutation_family list;
}

(* One row per vector generator in the fuzz comparison: transition
   tours, the size-matched pure-random baseline, and the distilled
   fuzz corpus. *)
type fuzz_method = {
  fz_method : string;
  fz_entries : int;
  fz_cycles : int;  (* vectors replayed against each mutant *)
  fz_gen_cycles : int;  (* vectors spent generating the set *)
  fz_states : int;
  fz_arcs : int;
  fz_pairs : int;
  fz_killed : int;
  fz_rate : float;
  fz_mean_v2k : float;  (* mean vectors-to-kill over its kills *)
}

type fuzz_section = {
  fz_seed : int;
  fz_budget : int;
  fz_rounds : int;
  fz_executed : int;
  fz_corpus : int;
  fz_explore_cycles : int;
  fz_arcs_total : int;
  fz_candidates : int;
  fz_methods : fuzz_method list;
}

type table = {
  table_title : string;
  header : string list;
  rows : string list list;
}

type t = {
  title : string;
  design : string;
  enum : enum_section option;
  tour : tour_section option;
  coverage : Coverage.summary option;
  replay : replay_section option;
  mutation : mutation_section option;
  fuzz : fuzz_section option;
  profile : Prof.t option;
  tables : table list;
  notes : string list;
}

let empty ~title ~design =
  {
    title;
    design;
    enum = None;
    tour = None;
    coverage = None;
    replay = None;
    mutation = None;
    fuzz = None;
    profile = None;
    tables = [];
    notes = [];
  }


(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let opt f = function None -> Json.Null | Some v -> f v

let json_of_enum (e : enum_section) =
  Json.Obj
    [
      ("num_states", Json.Int e.num_states);
      ("num_edges", Json.Int e.num_edges);
      ("state_bits", Json.Int e.state_bits);
      ("elapsed_s", Json.Float e.enum_elapsed_s);
      ("levels", Json.Int e.levels);
    ]

let json_of_tour (s : tour_section) =
  Json.Obj
    [
      ("traces", Json.Int s.traces);
      ("edge_traversals", Json.Int s.traversals);
      ("instructions", Json.Int s.instructions);
      ("longest_trace_edges", Json.Int s.longest_edges);
      ("longest_trace_instructions", Json.Int s.longest_instructions);
      ("traces_hitting_limit", Json.Int s.limit_hits);
    ]

let json_of_replay (r : replay_section) =
  Json.Obj
    [
      ("traces", Json.Int r.replay_traces);
      ("cycles", Json.Int r.replay_cycles);
      ("ok", Json.Bool r.ok);
      ("mismatch", opt (fun m -> Json.Str m) r.mismatch);
    ]

let json_of_family (f : mutation_family) =
  Json.Obj
    [
      ("family", Json.Str f.family);
      ("total", Json.Int f.fam_total);
      ("candidates", Json.Int f.fam_candidates);
      ("killed_tour", Json.Int f.fam_killed_tour);
      ("killed_random", Json.Int f.fam_killed_random);
      ("equivalent", Json.Int f.fam_equivalent);
      ("survived", Json.Int f.fam_survived);
      ("rejected", Json.Int f.fam_rejected);
    ]

let json_of_mutation (m : mutation_section) =
  Json.Obj
    [
      ("mutants", Json.Int m.mutants);
      ("candidates", Json.Int m.candidates);
      ("tour_killed", Json.Int m.tour_killed);
      ("tour_rate", Json.Float m.tour_rate);
      ("random_killed", Json.Int m.random_killed);
      ("random_rate", Json.Float m.random_rate);
      ("families", Json.List (List.map json_of_family m.families));
    ]

let json_of_fuzz_method (m : fuzz_method) =
  Json.Obj
    [
      ("method", Json.Str m.fz_method);
      ("entries", Json.Int m.fz_entries);
      ("cycles", Json.Int m.fz_cycles);
      ("gen_cycles", Json.Int m.fz_gen_cycles);
      ("states", Json.Int m.fz_states);
      ("arcs", Json.Int m.fz_arcs);
      ("pairs", Json.Int m.fz_pairs);
      ("killed", Json.Int m.fz_killed);
      ("rate", Json.Float m.fz_rate);
      ("mean_vectors_to_kill", Json.Float m.fz_mean_v2k);
    ]

let json_of_fuzz (f : fuzz_section) =
  Json.Obj
    [
      ("seed", Json.Int f.fz_seed);
      ("budget", Json.Int f.fz_budget);
      ("rounds", Json.Int f.fz_rounds);
      ("executed", Json.Int f.fz_executed);
      ("corpus", Json.Int f.fz_corpus);
      ("explore_cycles", Json.Int f.fz_explore_cycles);
      ("arcs_total", Json.Int f.fz_arcs_total);
      ("candidates", Json.Int f.fz_candidates);
      ("methods", Json.List (List.map json_of_fuzz_method f.fz_methods));
    ]

let json_of_table (tb : table) =
  Json.Obj
    [
      ("title", Json.Str tb.table_title);
      ("header", Json.List (List.map (fun h -> Json.Str h) tb.header));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun c -> Json.Str c) row))
             tb.rows) );
    ]

let to_json_value t =
  Json.Obj
    [
      ("title", Json.Str t.title);
      ("design", Json.Str t.design);
      ("enum", opt json_of_enum t.enum);
      ("tour", opt json_of_tour t.tour);
      ("coverage", opt Coverage.to_json t.coverage);
      ("replay", opt json_of_replay t.replay);
      ("mutation", opt json_of_mutation t.mutation);
      ("fuzz", opt json_of_fuzz t.fuzz);
      ("profile", opt (fun p -> Prof.to_json_value p) t.profile);
      ("tables", Json.List (List.map json_of_table t.tables));
      ("notes", Json.List (List.map (fun n -> Json.Str n) t.notes));
    ]

let to_json t = Json.to_string_pretty (to_json_value t)

(* ------------------------------------------------------------------ *)
(* HTML                                                               *)
(* ------------------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|body{font-family:ui-monospace,SFMono-Regular,Menlo,monospace;margin:2rem auto;
max-width:60rem;padding:0 1rem;color:#1c2128;background:#fbfbfc}
h1{font-size:1.3rem;border-bottom:2px solid #1c2128;padding-bottom:.4rem}
h2{font-size:1.05rem;margin-top:1.8rem}
table{border-collapse:collapse;margin:.6rem 0;font-size:.85rem}
th,td{border:1px solid #c6cbd2;padding:.25rem .6rem;text-align:right}
th{background:#eef0f3;text-align:center}
td:first-child,th:first-child{text-align:left}
.bar{display:inline-block;height:.7rem;background:#3b6ea5;vertical-align:middle}
.barbox{display:inline-block;width:12rem;background:#e3e6ea;vertical-align:middle}
.pct{margin-left:.5rem}
.note{color:#57606a;font-size:.8rem}|}

let bar frac =
  let pct = 100. *. (Float.max 0. (Float.min 1. frac)) in
  Printf.sprintf
    "<span class=\"barbox\"><span class=\"bar\" style=\"width:%.1f%%\"></span></span><span class=\"pct\">%.1f%%</span>"
    pct pct

let html_table buf (tb : table) =
  Buffer.add_string buf
    (Printf.sprintf "<h2>%s</h2>\n<table>\n<tr>" (html_escape tb.table_title));
  List.iter
    (fun h -> Buffer.add_string buf ("<th>" ^ html_escape h ^ "</th>"))
    tb.header;
  Buffer.add_string buf "</tr>\n";
  List.iter
    (fun row ->
      Buffer.add_string buf "<tr>";
      List.iter
        (fun c -> Buffer.add_string buf ("<td>" ^ html_escape c ^ "</td>"))
        row;
      Buffer.add_string buf "</tr>\n")
    tb.rows;
  Buffer.add_string buf "</table>\n"

let kv_table buf title rows =
  html_table buf
    { table_title = title; header = [ "metric"; "value" ]; rows }

let to_html t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>%s</title>\n<style>%s\n%s</style></head><body>\n"
       (html_escape t.title) style Prof.flame_style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>%s</h1>\n<p class=\"note\">design: %s</p>\n"
       (html_escape t.title) (html_escape t.design));
  (match t.enum with
   | None -> ()
   | Some e ->
     kv_table buf "State enumeration"
       [
         [ "reachable states"; string_of_int e.num_states ];
         [ "transitions"; string_of_int e.num_edges ];
         [ "bits/state"; string_of_int e.state_bits ];
         [ "elapsed"; Printf.sprintf "%.3f s" e.enum_elapsed_s ];
         [ "BFS levels"; string_of_int e.levels ];
       ]);
  (match t.tour with
   | None -> ()
   | Some s ->
     kv_table buf "Transition tours"
       [
         [ "traces"; string_of_int s.traces ];
         [ "edge traversals"; string_of_int s.traversals ];
         [ "instructions"; string_of_int s.instructions ];
         [ "longest trace (edges)"; string_of_int s.longest_edges ];
         [ "longest trace (instructions)";
           string_of_int s.longest_instructions ];
         [ "traces hitting limit"; string_of_int s.limit_hits ];
       ]);
  (match t.coverage with
   | None -> ()
   | Some c ->
     Buffer.add_string buf "<h2>Coverage</h2>\n<table>\n";
     Buffer.add_string buf
       (Printf.sprintf
          "<tr><td>states</td><td>%d/%d</td><td>%s</td></tr>\n"
          c.Coverage.states_seen c.Coverage.states_total
          (bar (Coverage.state_fraction c)));
     Buffer.add_string buf
       (Printf.sprintf "<tr><td>arcs</td><td>%d/%d</td><td>%s</td></tr>\n"
          c.Coverage.arcs_seen c.Coverage.arcs_total
          (bar (Coverage.arc_fraction c)));
     Buffer.add_string buf
       (Printf.sprintf
          "<tr><td>unmapped cycles</td><td>%d</td><td></td></tr>\n"
          c.Coverage.unmapped);
     Buffer.add_string buf "</table>\n");
  (match t.replay with
   | None -> ()
   | Some r ->
     kv_table buf "Vector replay"
       ([
          [ "traces"; string_of_int r.replay_traces ];
          [ "cycles"; string_of_int r.replay_cycles ];
          [ "result"; (if r.ok then "every transition matched" else "MISMATCH") ];
        ]
        @
        match r.mismatch with
        | None -> []
        | Some m -> [ [ "mismatch"; m ] ]));
  (match t.mutation with
   | None -> ()
   | Some m ->
     Buffer.add_string buf "<h2>Mutation score</h2>\n<table>\n";
     Buffer.add_string buf
       (Printf.sprintf
          "<tr><td>tour vectors</td><td>%d/%d</td><td>%s</td></tr>\n"
          m.tour_killed m.candidates (bar m.tour_rate));
     Buffer.add_string buf
       (Printf.sprintf
          "<tr><td>random baseline</td><td>%d/%d</td><td>%s</td></tr>\n"
          m.random_killed m.candidates (bar m.random_rate));
     Buffer.add_string buf "</table>\n";
     html_table buf
       {
         table_title = "Per operator family";
         header =
           [ "family"; "total"; "cand"; "tour"; "rand"; "equiv"; "surv";
             "rej" ];
         rows =
           List.map
             (fun f ->
               [
                 f.family;
                 string_of_int f.fam_total;
                 string_of_int f.fam_candidates;
                 string_of_int f.fam_killed_tour;
                 string_of_int f.fam_killed_random;
                 string_of_int f.fam_equivalent;
                 string_of_int f.fam_survived;
                 string_of_int f.fam_rejected;
               ])
             m.families;
       });
  (match t.fuzz with
   | None -> ()
   | Some f ->
     kv_table buf "Coverage-guided fuzzing"
       [
         [ "seed"; string_of_int f.fz_seed ];
         [ "budget (candidates)"; string_of_int f.fz_budget ];
         [ "rounds"; string_of_int f.fz_rounds ];
         [ "executed"; string_of_int f.fz_executed ];
         [ "corpus kept"; string_of_int f.fz_corpus ];
         [ "explore cycles"; string_of_int f.fz_explore_cycles ];
       ];
     html_table buf
       {
         table_title = "Generator comparison";
         header =
           [ "method"; "entries"; "cycles"; "arcs"; "arc %"; "killed";
             "kill %"; "mean vec-to-kill" ];
         rows =
           List.map
             (fun m ->
               [
                 m.fz_method;
                 string_of_int m.fz_entries;
                 string_of_int m.fz_cycles;
                 Printf.sprintf "%d/%d" m.fz_arcs f.fz_arcs_total;
                 Printf.sprintf "%.1f"
                   (if f.fz_arcs_total = 0 then 0.
                    else
                      100. *. float_of_int m.fz_arcs
                      /. float_of_int f.fz_arcs_total);
                 Printf.sprintf "%d/%d" m.fz_killed f.fz_candidates;
                 Printf.sprintf "%.1f" (100. *. m.fz_rate);
                 Printf.sprintf "%.1f" m.fz_mean_v2k;
               ])
             f.fz_methods;
       });
  (match t.profile with
   | None -> ()
   | Some p ->
     let ms ns = Printf.sprintf "%.2f" (float_of_int ns /. 1e6) in
     let top =
       List.filteri (fun i _ -> i < 15) p.Prof.p_spans
     in
     html_table buf
       {
         table_title =
           Printf.sprintf "Profile — top spans by self time (%d events, \
                           wall %.3f s)"
             p.Prof.p_events
             (float_of_int p.Prof.p_wall_ns /. 1e9);
         header = [ "span"; "count"; "total ms"; "self ms"; "p95 ms" ];
         rows =
           List.map
             (fun (s : Prof.span_stat) ->
               [
                 s.Prof.s_name;
                 string_of_int s.Prof.s_count;
                 ms s.Prof.s_total_ns;
                 ms s.Prof.s_self_ns;
                 ms s.Prof.s_p95_ns;
               ])
             top;
       };
     (match p.Prof.p_parallel with
      | None -> ()
      | Some par ->
        Buffer.add_string buf "<h2>Parallel efficiency</h2>\n<table>\n";
        Buffer.add_string buf
          (Printf.sprintf "<tr><td>domains</td><td>%d</td><td></td></tr>\n"
             par.Prof.par_domains);
        Buffer.add_string buf
          (Printf.sprintf "<tr><td>utilization</td><td></td><td>%s</td></tr>\n"
             (bar par.Prof.par_utilization));
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>serial fraction</td><td></td><td>%s</td></tr>\n"
             (bar par.Prof.par_serial_fraction));
        Buffer.add_string buf "</table>\n";
        Buffer.add_string buf
          (Printf.sprintf "<p class=\"note\">%s</p>\n"
             (html_escape par.Prof.par_diagnosis)));
     Buffer.add_string buf "<h2>Flame view</h2>\n";
     Buffer.add_string buf (Prof.flame_div p));
  List.iter (fun tb -> html_table buf tb) t.tables;
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "<p class=\"note\">%s</p>\n" (html_escape n)))
    t.notes;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write t ~dir =
  mkdir_p dir;
  let out name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  out "report.json" (to_json t);
  out "report.html" (to_html t)
