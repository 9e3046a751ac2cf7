(* The repository benchmark.

     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

   Three workloads, each one op repeated in a closed loop (one client:
   an op starts only after the previous one has finished) on one OCaml
   domain.  An op calls the same library functions, in the same order,
   as the command it stands for:

   - enum-tour-medium: the Table 3.2 + 3.3 pipeline on
     Control_model.medium as bench/main.ml table-3.3 runs it —
     State_graph.enumerate, then Tour_gen.generate ~instr_limit:10_000;
   - mutate-pp: avp mutate pp --seed N -j 1;
   - fuzz-pp: avp fuzz pp --seed N --budget 1024 --mutants 16 -j 1.

   The first op of a process runs on a fresh heap and is reported
   apart; the ops after it each start from a compacted heap.  Times are
   medians of ops and set-up samples, each scaled to a reference host
   speed (see Host speed below).  Every op's output is checked against
   perfbench/expected.json.  The last line of stdout is
   one JSON object: the end-to-end metrics of an untraced run
   (--trace 0), or the per-layer metrics of a traced run (--trace 1),
   read from the spans and counters the library emits plus the
   benchmark's own spans around each call into a layer.  README.md
   documents every metric. *)

module Obs = Avp_obs.Obs
module J = Avp_obs.Json
module Coverage = Avp_obs.Coverage
module Model = Avp_fsm.Model
module Translate = Avp_fsm.Translate
module State_graph = Avp_enum.State_graph
module Tour_gen = Avp_tour.Tour_gen
module Campaign = Avp_mutate.Campaign
module Loop = Avp_fuzz.Loop
module Compare = Avp_fuzz.Compare
module Control_model = Avp_pp.Control_model

let now = Obs.Clock.now_s

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated so far: minor words plus words allocated directly in
   the major heap.  The major figures refresh at minor collections, so
   callers collect first. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Seconds covered by a set of [start, end) nanosecond intervals. *)
let union_s ivs =
  let rec go total (s0, e0) = function
    | [] -> total + e0 - s0
    | (s, e) :: rest ->
      if s <= e0 then go total (s0, max e0 e) rest
      else go (total + e0 - s0) (s, e) rest
  in
  match List.sort compare ivs with
  | [] -> 0.
  | iv :: rest -> float_of_int (go 0 iv rest) /. 1e9

(* ------------------------------------------------------------------ *)
(* Stages: the benchmark's own spans around each call into a layer     *)
(* ------------------------------------------------------------------ *)

let stage_names =
  [
    "model"; "parse"; "elab"; "translate"; "enumerate"; "tour"; "campaign";
    "loop"; "compare"; "report";
  ]

(* Words each stage of the current traced op allocated. *)
let stage_alloc : (string, float) Hashtbl.t = Hashtbl.create 16

(* A traced stage collects the minor heap on both sides of its span:
   without that the counters lag, and a stage's words drifted between
   identical ops.  The collections land in unattributed_s. *)
let stage name f =
  if not (Obs.enabled ()) then f ()
  else begin
    Gc.minor ();
    let a0 = allocated () in
    let r = Obs.span ~cat:"bench" ("bench." ^ name) f in
    Gc.minor ();
    Hashtbl.replace stage_alloc name (allocated () -. a0);
    r
  end

(* Transition evaluations of the current traced op's own enumeration. *)
let enum_evals = ref 0

(* State_graph.enumerate at -j 1.  A traced op wraps the model it
   passes in, counting the calls to [next] and [next_into]. *)
let enumerate (m : Model.t) =
  stage "enumerate" (fun () ->
      if not (Obs.enabled ()) then State_graph.enumerate ~domains:1 m
      else begin
        let n = ref 0 in
        let counted =
          {
            m with
            Model.next =
              (fun s c ->
                incr n;
                m.Model.next s c);
            next_into =
              (fun s c d ->
                incr n;
                m.Model.next_into s c d);
          }
        in
        let g = State_graph.enumerate ~domains:1 counted in
        enum_evals := !n;
        g
      end)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type product = {
  digest : string;  (** of the op's deterministic output *)
  facts : (string * float) list;  (** per-layer numbers read off the output *)
  check : J.t -> string list;  (** failed expectations; [] when correct *)
}

type workload = {
  name : string;
  setup : unit -> unit;  (** the op's set-up phase on its own *)
  setup_batch : int;  (** set-ups timed together as one sample *)
  setups_per_op : int;  (** set-up samples taken after each op *)
  op : unit -> unit -> product;
      (** one op; the closure it returns inspects the output, untimed *)
}

let field k e = Option.value ~default:J.Null (J.member k e)
let default_seed e = Option.value ~default:0 (J.to_int (field "default_seed" e))
let require cond msg = if cond then [] else [ msg ]

(* Each actual count must equal the stored expectation of that name. *)
let expect_ints what e actual =
  List.filter_map
    (fun (k, v) ->
      match J.to_int (field k e) with
      | Some x when x = v -> None
      | Some x -> Some (Printf.sprintf "%s: %s = %d, expected %d" what k v x)
      | None -> Some (Printf.sprintf "%s: no stored expectation for %s" what k))
    actual

(* Today's value is a floor: the count may grow, never drop. *)
let at_least what e k v =
  match J.to_int (field k e) with
  | Some x when v >= x -> []
  | Some x -> [ Printf.sprintf "%s: %s = %d, below the stored %d" what k v x ]
  | None -> [ Printf.sprintf "%s: no stored expectation for %s" what k ]

let graph_facts (g : State_graph.t) =
  let s = g.State_graph.stats in
  [
    ("enum.states", float_of_int s.State_graph.num_states);
    ("enum.edges", float_of_int s.State_graph.num_edges);
    ("enum.heap_mb", s.State_graph.heap_mb);
    ( "enum.level_p95_s",
      quantile 0.95 (Array.to_list (Array.map snd s.State_graph.level_times))
    );
  ]

let tour_facts (t : Tour_gen.t) =
  let s = t.Tour_gen.stats in
  [
    ("tour.traversals", float_of_int s.Tour_gen.edge_traversals);
    ("tour.traces", float_of_int s.Tour_gen.num_traces);
    ("tour.longest_edges", float_of_int s.Tour_gen.longest_trace_edges);
  ]

let enum_tour_medium () =
  let cfg = Control_model.medium in
  let op () =
    let m = stage "model" (fun () -> Control_model.model cfg) in
    let g = enumerate m in
    let weigh ~src ~choice =
      Control_model.instructions_of_edge cfg ~src:g.State_graph.states.(src)
        ~choice:(Model.choice_of_index m choice)
    in
    let t =
      stage "tour" (fun () ->
          Tour_gen.generate ~instr_limit:10_000 ~instructions_of_edge:weigh g)
    in
    fun () ->
      let s = t.Tour_gen.stats in
      let counts =
        [
          ("states", State_graph.num_states g);
          ("edges", State_graph.num_edges g);
          ("traversals", s.Tour_gen.edge_traversals);
          ("traces", s.Tour_gen.num_traces);
        ]
      in
      let covers = Tour_gen.covers_all_edges g t in
      {
        digest =
          String.concat " "
            (Printf.sprintf "covers=%b" covers
            :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts);
        facts = graph_facts g @ tour_facts t;
        check =
          (fun e ->
            expect_ints "enum-tour-medium" (field "any_seed" e) counts
            @ require covers "enum-tour-medium: the tours miss an arc");
      }
  in
  {
    name = "enum-tour-medium";
    setup = (fun () -> ignore (Control_model.model cfg));
    setup_batch = 20_000;
    setups_per_op = 3;
    op;
  }

(* Parse, elaborate, translate and enumerate the built-in PP control
   module, as avp mutate and avp fuzz do before their main work. *)
let pp_front () =
  let design =
    stage "parse" (fun () -> Avp_hdl.Parser.parse Avp_pp.Control_hdl.source)
  in
  let elab = stage "elab" (fun () -> Avp_hdl.Elab.elaborate design) in
  let tr = stage "translate" (fun () -> Translate.translate elab) in
  (design, tr, enumerate tr.Translate.model)

let mutate_pp ~seed =
  let setup () =
    let design, tr, graph = pp_front () in
    (design, tr, graph, stage "tour" (fun () -> Tour_gen.generate graph))
  in
  let op () =
    let design, tr, graph, tours = setup () in
    let r =
      stage "campaign" (fun () ->
          Campaign.run ~seed ~domains:1 ~engine:`Sliced ~design ~tr ~graph
            ~tours ())
    in
    ignore
      (stage "report" (fun () -> Format.asprintf "%a" Campaign.pp_report r));
    fun () ->
      let digest = Digest.to_hex (Digest.string (Campaign.to_json r)) in
      {
        digest;
        facts =
          graph_facts graph @ tour_facts tours
          @ [
              ("mutate.candidates", float_of_int r.Campaign.candidates);
              ("mutate.tour_killed", float_of_int r.Campaign.tour_killed);
              ("mutate.random_killed", float_of_int r.Campaign.random_killed);
            ];
        check =
          (fun e ->
            (* The tour set and the vetting do not depend on the seed,
               so these counts hold at every seed. *)
            expect_ints "mutate-pp" (field "any_seed" e)
              [
                ("total", r.Campaign.total);
                ("results", Array.length r.Campaign.results);
                ("candidates", r.Campaign.candidates);
                ("tour_killed", r.Campaign.tour_killed);
              ]
            @ require
                (r.Campaign.random_killed <= r.Campaign.candidates)
                "mutate-pp: more random kills than candidates"
            @
            if seed <> default_seed e then []
            else
              require
                (J.to_str (field "report_md5" e) = Some digest)
                (Printf.sprintf
                   "mutate-pp: Campaign.to_json digest %s differs from the \
                    stored one"
                   digest));
      }
  in
  {
    name = "mutate-pp";
    setup = (fun () -> ignore (setup ()));
    setup_batch = 1;
    setups_per_op = 1;
    op;
  }

let fuzz_pp ~seed =
  let config =
    {
      Loop.default_config with
      Loop.seed;
      budget = 1024;
      engine = `Sliced;
      domains = 1;
    }
  in
  let op () =
    let design, tr, graph = pp_front () in
    let res = stage "loop" (fun () -> Loop.run ~config tr graph) in
    let tours = stage "tour" (fun () -> Tour_gen.generate graph) in
    let cmp =
      stage "compare" (fun () ->
          Compare.run ~seed ~mutant_budget:16 ~domains:1 ~design ~tr ~graph
            ~tours ~fuzz:res ())
    in
    ignore
      (stage "report" (fun () ->
           let cov = Coverage.summary res.Loop.coverage in
           Format.asprintf
             "fuzz: %s %d rounds, %d/%d candidates kept, %d explore \
              cycles@.coverage: %a, %d (state, input-class) pairs@.%a"
             res.Loop.design res.Loop.rounds
             (Array.length res.Loop.kept)
             res.Loop.executed res.Loop.explore_cycles Coverage.pp cov
             (Coverage.pairs_seen res.Loop.coverage)
             Compare.pp cmp));
    fun () ->
      let meth name = Option.get (Compare.find_method cmp name) in
      let fz = meth "fuzz" and rnd = meth "random" and tour = meth "tour" in
      let kept = Array.length res.Loop.kept in
      let arcs_total = cmp.Compare.c_arcs_total in
      let output =
        J.Obj
          [
            ("rounds", J.Int res.Loop.rounds);
            ("executed", J.Int res.Loop.executed);
            ("kept", J.Int kept);
            ("explore_cycles", J.Int res.Loop.explore_cycles);
            ("coverage", Coverage.to_json (Coverage.summary res.Loop.coverage));
            ("compare", Compare.json_value cmp);
          ]
      in
      {
        digest = Digest.to_hex (Digest.string (J.to_string output));
        facts =
          graph_facts graph @ tour_facts tours
          @ [
              ("fuzz.rounds", float_of_int res.Loop.rounds);
              ("fuzz.executed", float_of_int res.Loop.executed);
              ("fuzz.kept", float_of_int kept);
              ("fuzz.explore_cycles", float_of_int res.Loop.explore_cycles);
              ("fuzz.arcs", float_of_int fz.Compare.m_arcs);
              ("fuzz.killed", float_of_int fz.Compare.m_killed);
              ("random.killed", float_of_int rnd.Compare.m_killed);
            ];
        check =
          (fun e ->
            expect_ints "fuzz-pp" (field "any_seed" e)
              [
                ("executed", res.Loop.executed);
                ("mutants", cmp.Compare.c_mutants);
                ("arcs_total", arcs_total);
                ("tour_arcs", tour.Compare.m_arcs);
              ]
            @ require (kept <= res.Loop.executed)
                "fuzz-pp: more entries kept than executed"
            @ require
                (List.for_all
                   (fun m ->
                     m.Compare.m_arcs <= arcs_total
                     && m.Compare.m_killed <= cmp.Compare.c_candidates)
                   cmp.Compare.c_methods)
                "fuzz-pp: a method covers more arcs or kills more mutants \
                 than there are"
            @ require
                (cmp.Compare.c_candidates <= cmp.Compare.c_vetted
                && cmp.Compare.c_vetted <= cmp.Compare.c_mutants)
                "fuzz-pp: more candidates than vetted mutants, or more \
                 vetted than sampled"
            @
            if seed <> default_seed e then []
            else
              at_least "fuzz-pp" e "fuzz_arcs" fz.Compare.m_arcs
              @ at_least "fuzz-pp" e "fuzz_killed" fz.Compare.m_killed
              @ require
                  (fz.Compare.m_killed >= rnd.Compare.m_killed)
                  (Printf.sprintf "fuzz-pp: fuzz kills %d, below random's %d"
                     fz.Compare.m_killed rnd.Compare.m_killed));
      }
  in
  {
    name = "fuzz-pp";
    setup = (fun () -> ignore (pp_front ()));
    setup_batch = 1;
    setups_per_op = 2;
    op;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of one traced op                                  *)
(* ------------------------------------------------------------------ *)

(* Units of the metrics that must repeat exactly, op after op and run
   after run of the same seed. *)
let deterministic_units = [ "count"; "Mwords"; "ratio" ]

(* Stage rows of the traced op; with unattributed_s they sum to
   traced_wall_s. *)
let stage_rows =
  [
    "pp.model_s"; "hdl.parse_s"; "hdl.elab_s"; "fsm.translate_s";
    "enum.enumerate_s"; "tour.generate_s"; "mutate.campaign_s"; "fuzz.loop_s";
    "fuzz.compare_s"; "report_s"; "unattributed_s";
  ]

(* Stage and layer times come from the raw start and end of each span:
   a time is the union of a span set's intervals, never a profiler
   self-time. *)
let layer_metrics tracer (p : product) =
  let evs = Obs.events tracer in
  let counters = Obs.counters tracer in
  let spans name =
    List.filter_map
      (fun (e : Obs.event) ->
        if e.Obs.ph = Obs.Span && e.Obs.name = name then
          Some (e.Obs.ts_ns, e.Obs.ts_ns + e.Obs.dur_ns)
        else None)
      evs
  in
  (* Spans of [ivs] whose midpoint lies in one of [outer]. *)
  let inside outer ivs =
    List.filter
      (fun (s, e) ->
        let m = (s + e) / 2 in
        List.exists (fun (a, b) -> a <= m && m <= b) outer)
      ivs
  in
  let stage n = spans ("bench." ^ n) in
  let stage_s n = union_s (stage n) in
  let durs ivs = List.map (fun (s, e) -> float_of_int (e - s) /. 1e9) ivs in
  let count ivs = float_of_int (List.length ivs) in
  let counter k =
    float_of_int (Option.value ~default:0 (List.assoc_opt k counters))
  in
  let fact k = Option.value ~default:0. (List.assoc_opt k p.facts) in
  let mwords n =
    Option.value ~default:0. (Hashtbl.find_opt stage_alloc n) /. 1e6
  in
  let per a b = if b = 0. then 0. else a /. b in
  let op = spans "bench.op" in
  let wall = union_s op in
  let clipped =
    List.concat_map
      (fun (s, e) ->
        List.filter_map
          (fun (a, b) ->
            let s = max s a and e = min e b in
            if s < e then Some (s, e) else None)
          op)
      (List.concat_map stage stage_names)
  in
  let equiv =
    List.filter
      (fun iv -> inside (stage "enumerate") [ iv ] = [])
      (spans "enum.run")
  in
  let compiles = spans "hdl.compile" in
  let passes = spans "mutate.pass" in
  let classify = spans "mutate.classify" in
  let rounds = spans "fuzz.round" in
  let kills = spans "fuzz.kill" in
  let evals = float_of_int !enum_evals in
  let steps = counter "sim.steps" and lane_cycles = counter "sim.lanes" in
  let enumerate_s = stage_s "enumerate"
  and tour_s = stage_s "tour"
  and loop_s = stage_s "loop" in
  [
    ("hdl.parse_s", "s", stage_s "parse");
    ("hdl.elab_s", "s", stage_s "elab");
    ("fsm.translate_s", "s", stage_s "translate");
    ("pp.model_s", "s", stage_s "model");
    ("enum.enumerate_s", "s", enumerate_s);
    ("enum.alloc_mwords", "Mwords", mwords "enumerate");
    ("enum.states", "count", fact "enum.states");
    ("enum.edges", "count", fact "enum.edges");
    ("enum.states_per_s", "1/s", per (fact "enum.states") enumerate_s);
    ("enum.heap_mb", "MB", fact "enum.heap_mb");
    ("enum.level_p95_s", "s", fact "enum.level_p95_s");
    ("enum.transition_evals", "count", evals);
    ("enum.useful_ratio", "ratio", per (fact "enum.edges") evals);
    ("enum.equiv_runs", "count", count equiv);
    ("enum.equiv_s", "s", union_s equiv);
    ("tour.generate_s", "s", tour_s);
    ("tour.alloc_mwords", "Mwords", mwords "tour");
    ("tour.traversals", "count", fact "tour.traversals");
    ("tour.traces", "count", fact "tour.traces");
    ("tour.longest_edges", "count", fact "tour.longest_edges");
    ("tour.traversals_per_s", "1/s", per (fact "tour.traversals") tour_s);
    ("sim.steps", "count", steps);
    ("sim.lane_cycles", "count", lane_cycles);
    ("sim.lanes_per_step", "ratio", per lane_cycles steps);
    ("hdl.compile_count", "count", count compiles);
    ("hdl.compile_s", "s", union_s compiles);
    ("mutate.campaign_s", "s", stage_s "campaign");
    ("mutate.alloc_mwords", "Mwords", mwords "campaign");
    ("mutate.passes", "count", count passes);
    ("mutate.pass_s", "s", union_s passes);
    ("mutate.classify_count", "count", count classify);
    ("mutate.classify_p50_s", "s", quantile 0.5 (durs classify));
    ("mutate.classify_p95_s", "s", quantile 0.95 (durs classify));
    ("mutate.candidates", "count", fact "mutate.candidates");
    ("mutate.tour_killed", "count", fact "mutate.tour_killed");
    ("mutate.random_killed", "count", fact "mutate.random_killed");
    ("fuzz.loop_s", "s", loop_s);
    ("fuzz.loop_alloc_mwords", "Mwords", mwords "loop");
    ("fuzz.rounds", "count", fact "fuzz.rounds");
    ("fuzz.executed", "count", fact "fuzz.executed");
    ("fuzz.kept", "count", fact "fuzz.kept");
    ("fuzz.explore_cycles", "count", fact "fuzz.explore_cycles");
    ("fuzz.cycles_per_s", "1/s", per (fact "fuzz.explore_cycles") loop_s);
    ("fuzz.round_p50_s", "s", quantile 0.5 (durs rounds));
    ("fuzz.round_p95_s", "s", quantile 0.95 (durs rounds));
    ("fuzz.keep_ratio", "ratio", per (fact "fuzz.kept") (fact "fuzz.executed"));
    ( "fuzz.compiles_per_round",
      "ratio",
      per (count (inside (stage "loop") compiles)) (count rounds) );
    ("fuzz.exec_s", "s", union_s (inside (stage "loop") (spans "fuzz.exec")));
    ("fuzz.compare_s", "s", stage_s "compare");
    ("fuzz.compare_alloc_mwords", "Mwords", mwords "compare");
    ("fuzz.kill_count", "count", count kills);
    ("fuzz.kill_p50_s", "s", quantile 0.5 (durs kills));
    ("fuzz.kill_p95_s", "s", quantile 0.95 (durs kills));
    ( "fuzz.replay_traces",
      "count",
      count (inside (stage "compare") (spans "replay.trace")) );
    ("fuzz.arcs", "count", fact "fuzz.arcs");
    ("fuzz.killed", "count", fact "fuzz.killed");
    ("random.killed", "count", fact "random.killed");
    ("report_s", "s", stage_s "report");
    ("traced_wall_s", "s", wall);
    ("unattributed_s", "s", wall -. union_s clipped);
    ("obs.events", "count", float_of_int (List.length evs));
  ]

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The host shares its cores with other machines, and its speed drifts
   in spells of seconds to minutes: the fastest enum-tour-medium op of
   runs a few minutes apart ranged from 3.3 to 5.3 s, and sweeps of the
   same code gave medians 27% apart.  So every timed op, and every
   block of set-up samples, sits between timings of a fixed reference
   kernel of the benchmark's own, which calls no library code, and is
   scaled by [ref_kernel_s] over the median of those timings: times
   read as on a host where the kernel takes [ref_kernel_s].  The scale
   cancels the drift, not a change to the library, which the kernel
   never runs. *)
let ref_kernel_s = 0.1

module Int_map = Map.Make (Int)

(* Stdlib hash-table and balanced-tree updates and lookups over ~2 MiB:
   allocation, branches and pointer walks, as in the workloads.  Faster
   kernels that only chased pointers through 32 MiB or only mixed
   integers kept their speed through the host's slow spells, which
   slowed the workloads by half. *)
let kernel () =
  let h = Hashtbl.create 16 and m = ref Int_map.empty and acc = ref 0 in
  for i = 1 to 100_000 do
    let k = (i * 40503) land 0x3FFFF in
    Hashtbl.replace h k (i, k);
    (match Hashtbl.find_opt h ((i * 7919) land 0x3FFFF) with
    | Some (v, _) -> acc := !acc + v
    | None -> ());
    if i land 1 = 0 then begin
      m := Int_map.add (k land 0xFFFF) i !m;
      match Int_map.find_opt ((i * 7919) land 0xFFFF) !m with
      | Some v -> acc := !acc + v
      | None -> ()
    end
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Running ops                                                          *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall : float;
  cpu : float;
  alloc_mw : float;
  product : product;
  layers : (string * string * float) list;  (** traced ops only *)
}

let run_op w ~traced =
  Gc.compact ();
  Hashtbl.reset stage_alloc;
  let tracer = if traced then Some (Obs.create ()) else None in
  let a0 = allocated () in
  let c0 = cpu_s () in
  let t0 = now () in
  let inspect =
    match tracer with
    | None -> w.op ()
    | Some t ->
      Obs.with_tracer t (fun () -> Obs.span ~cat:"bench" "bench.op" w.op)
  in
  let t1 = now () in
  let c1 = cpu_s () in
  Gc.minor ();
  let a1 = allocated () in
  let product = inspect () in
  {
    wall = t1 -. t0;
    cpu = c1 -. c0;
    alloc_mw = (a1 -. a0) /. 1e6;
    product;
    layers =
      (match tracer with None -> [] | Some t -> layer_metrics t product);
  }

type result = {
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

(* Set-up samples a run takes at the least. *)
let min_setups = 9

(* The seeds an untraced run of fuzz-pp takes turns with: the workload
   seed and three more derived from it, disjoint for workload seeds
   below 1000.  A fuzz-pp op's cost depends on its seed, because Compare
   replays a 16-mutant sample and one sample costs up to 1.6x another;
   averaging over 4 seeds keeps a run's figures from resting on one
   draw.  An op takes about 7 s, so a 25 s run gives each seed one op,
   and a run's time is the mean of those 4 ops.  The other workloads do the same work at every seed
   (enum-tour-medium has no randomness; mutate-pp's allocation moved
   0.07% over 10 seeds), so they keep to the workload seed.  A traced
   run keeps to the workload seed, so its counts belong to one seed. *)
let seeds_of name seed ~traced =
  if traced || name <> "fuzz-pp" then [ seed ]
  else List.init 4 (fun k -> seed + (1000 * k))

(* [ws] is one workload at each of its seeds, the workload seed first. *)
let measure ws ~expect ~seconds ~traced =
  let seed0, w0 = List.hd ws in
  let attempted = ref 0 and failed = ref 0 in
  (* The exact-count gate: at one seed, outputs and counts must repeat
     op after op.  A drift is a nondeterminism bug, reported by metric
     name. *)
  let refs = Hashtbl.create 16 in
  let drift seed what v =
    match Hashtbl.find_opt refs (seed, what) with
    | None ->
      Hashtbl.replace refs (seed, what) v;
      []
    | Some v0 ->
      List.filter_map
        (fun (k, x) ->
          match List.assoc_opt k v0 with
          | Some x0 when x0 = x -> None
          | x0 ->
            Some
              (Printf.sprintf
                 "%s seed %d: nondeterminism: %s drifted between ops (%s, \
                  then %s)"
                 w0.name seed k
                 (Option.value ~default:"none" x0)
                 x))
        v
  in
  let run (seed, w) ~warm ~traced =
    let s = run_op w ~traced in
    let det =
      List.filter_map
        (fun (n, u, v) ->
          if List.mem u deterministic_units then
            Some (n, Printf.sprintf "%.17g" v)
          else None)
        s.layers
    in
    let problems =
      s.product.check expect
      @ drift seed "digest" [ ("output digest", s.product.digest) ]
      @ (if warm && not traced then
           drift seed "alloc"
             [ ("alloc_mwords", Printf.sprintf "%.6f" s.alloc_mw) ]
         else [])
      @ if traced then drift seed "layers" det else []
    in
    incr attempted;
    if problems <> [] then begin
      incr failed;
      List.iter prerr_endline problems
    end;
    (seed, s)
  in
  let _, first = run (seed0, w0) ~warm:false ~traced:false in
  (* This process runs one workload, so its peak is the workload's. *)
  let peak = peak_heap_mib () in
  (* Host speed: each timed item sits between two pairs of kernel
     timings. *)
  let kernels = ref [] in
  let time_kernel () =
    Gc.compact ();
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let k = now () -. t0 in
    kernels := k :: !kernels;
    k
  in
  (* A single timing strays by a tenth and more, so the kernel runs
     twice on each side of an item, and the median of the four sets the
     item's scale. *)
  let gap () = List.init 2 (fun _ -> time_kernel ()) in
  let last = ref (gap ()) in
  let bracketed f =
    let before = !last in
    let r = f () in
    last := gap ();
    (r, ref_kernel_s /. median (before @ !last))
  in
  let setup_samples n =
    List.init n (fun _ ->
        Gc.compact ();
        let t0 = now () in
        for _ = 1 to w0.setup_batch do
          w0.setup ()
        done;
        (now () -. t0) /. float_of_int w0.setup_batch)
  in
  let setups = ref [] in
  let add_setups (raws, scale) =
    setups := List.map (fun raw -> (raw, scale)) raws @ !setups
  in
  let t_start = now () in
  let plain = ref [] and traced_ops = ref [] and next = ref 0 in
  let every_seed_ran () =
    List.for_all
      (fun (seed, _) -> List.exists (fun (s, _, _) -> s = seed) !plain)
      ws
  in
  while
    now () -. t_start < seconds
    || (not (every_seed_ran ()))
    || (traced && !traced_ops = [])
  do
    (* A traced run alternates untraced and traced ops. *)
    if traced && List.length !plain > List.length !traced_ops then
      traced_ops :=
        fst (bracketed (fun () -> snd (run (seed0, w0) ~warm:true ~traced:true)))
        :: !traced_ops
    else begin
      (* Set-up samples follow each op, so they meet the host's spells as
         often as ops do.  They share the op's scale: the kernel's cost is
         paid once per op. *)
      let ((seed, s), raws), scale =
        bracketed (fun () ->
            let r =
              run (List.nth ws (!next mod List.length ws)) ~warm:true
                ~traced:false
            in
            (r, setup_samples w0.setups_per_op))
      in
      plain := (seed, s, scale) :: !plain;
      add_setups (raws, scale);
      incr next
    end
  done;
  if List.length !setups < min_setups then
    add_setups
      (bracketed (fun () -> setup_samples (min_setups - List.length !setups)));
  let setups = !setups and kernels = !kernels in
  let elapsed = now () -. t_start in
  let seeded = !plain and traced_ops = !traced_ops in
  let plain = List.map (fun (_, s, _) -> s) seeded in
  (* Each seed's median op, averaged over the seeds. *)
  let per_seed f =
    List.fold_left
      (fun acc (seed, _) ->
        acc
        +. median
             (List.filter_map
                (fun (s', x, k) -> if s' = seed then Some (f x k) else None)
                seeded))
      0. ws
    /. float_of_int (List.length ws)
  in
  let fastest = List.fold_left Float.min infinity in
  let wall = per_seed (fun s k -> s.wall *. k) in
  let n_plain = List.length plain in
  Printf.printf
    "== %s (seeds %s): closed loop, 1 client, 1 domain; first op + %d ops \
     in %.1f s\n"
    w0.name
    (String.concat ", " (List.map (fun (s, _) -> string_of_int s) ws))
    (n_plain + List.length traced_ops)
    elapsed;
  Printf.printf "  %-14s %14.6f s       first op of the process (fresh heap)\n"
    "first_op_s" first.wall;
  Printf.printf "  ops (raw wall s x speed scale):%s\n"
    (String.concat ""
       (List.rev_map
          (fun (_, s, k) -> Printf.sprintf " %.3fx%.3f" s.wall k)
          seeded));
  Printf.printf "  set-ups (raw s x speed scale):%s\n"
    (String.concat ""
       (List.rev_map (fun (x, k) -> Printf.sprintf " %.4gx%.3f" x k) setups));
  Printf.printf "  reference kernel: median %.4f s over %d timings\n"
    (median kernels) (List.length kernels);
  let metrics =
    if not traced then begin
      let fail_frac = float_of_int !failed /. float_of_int !attempted in
      let rows =
        [
          ( "wall_s",
            "s",
            wall,
            Printf.sprintf "scaled to host speed; raw median %.6f s"
              (per_seed (fun s _ -> s.wall)) );
          ( "cpu_s",
            "s",
            per_seed (fun s k -> s.cpu *. k),
            Printf.sprintf "scaled to host speed; raw median %.6f s"
              (per_seed (fun s _ -> s.cpu)) );
          ( "setup_s",
            "s",
            median (List.map (fun (x, k) -> x *. k) setups),
            Printf.sprintf "median of %d set-ups, scaled; raw median %.6g s"
              (List.length setups)
              (median (List.map fst setups)) );
          ( "alloc_mwords",
            "Mwords",
            per_seed (fun s _ -> s.alloc_mw),
            Printf.sprintf "first op %.6f" first.alloc_mw );
          ("peak_heap_mb", "MiB", peak, "Gc top_heap_words after the first op");
          ( "ok_frac",
            "ratio",
            1. -. fail_frac,
            Printf.sprintf "fail_frac %g: %d of %d ops failed" fail_frac
              !failed !attempted );
        ]
      in
      List.iter
        (fun (n, u, v, note) ->
          Printf.printf "  %-14s %14.6f %-7s %s\n" n v u note)
        rows;
      List.map (fun (n, u, v, _) -> (n, u, v)) rows
    end
    else begin
      (* The traced op of median wall time: its stage rows sum to its
         wall time. *)
      let sorted = List.sort (fun a b -> compare a.wall b.wall) traced_ops in
      let mid = List.nth sorted ((List.length sorted - 1) / 2) in
      let overhead =
        fastest (List.map (fun s -> s.wall) traced_ops)
        /. fastest (List.map (fun s -> s.wall) plain)
      in
      let value n =
        List.fold_left
          (fun acc (m, _, v) -> if m = n then v else acc)
          0. mid.layers
      in
      Printf.printf
        "  %d untraced, %d traced ops; stages of the median traced op:\n"
        n_plain (List.length traced_ops);
      List.iter
        (fun n ->
          if value n > 0. then Printf.printf "    %-20s %12.6f s\n" n (value n))
        stage_rows;
      Printf.printf "    %-20s %12.6f s (trace overhead %.3fx)\n"
        "= traced_wall_s" (value "traced_wall_s") overhead;
      let metrics =
        mid.layers
        @ [
            ("obs.trace_overhead", "x", overhead);
            ("first_op_s", "s", first.wall);
          ]
      in
      List.iter
        (fun (n, u, v) -> Printf.printf "  %-26s %16.6f %s\n" n v u)
        metrics;
      metrics
    end
  in
  { attempted = !attempted; failed = !failed; metrics }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let expect_file = "perfbench/expected.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let workload_names = [ "enum-tour-medium"; "mutate-pp"; "fuzz-pp" ]

let make_workload name ~seed =
  match name with
  | "enum-tour-medium" -> enum_tour_medium ()
  | "mutate-pp" -> mutate_pp ~seed
  | "fuzz-pp" -> fuzz_pp ~seed
  | _ ->
    die "unknown workload %s (known: %s)" name
      (String.concat ", " workload_names)

let result_json r =
  J.Obj
    [
      ("correct", J.Bool (r.failed = 0));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, u, v) ->
               (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
             r.metrics) );
    ]

(* Inject one wrong expectation (mutate-pp's report digest) and show it
   counted as a failed op, next to a clean run of the stored ones. *)
let self_test expect =
  let e = field "mutate-pp" expect in
  let seed = default_seed e in
  let wrong =
    match e with
    | J.Obj kv ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if k = "report_md5" then (k, J.Str (String.make 32 '0'))
             else (k, v))
           kv)
    | j -> j
  in
  let ws = [ (seed, mutate_pp ~seed) ] in
  let good = measure ws ~expect:e ~seconds:0. ~traced:false in
  let bad = measure ws ~expect:wrong ~seconds:0. ~traced:false in
  let ok = good.failed = 0 && bad.attempted > 0 && bad.failed = bad.attempted in
  Printf.printf
    "self-test: stored expectations: %d of %d ops failed; wrong digest \
     injected: %d of %d ops failed -> %s\n"
    good.failed good.attempted bad.failed bad.attempted
    (if ok then "ok" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  let workload = ref ""
  and seed = ref None
  and seconds = ref 30.
  and trace = ref 0
  and self = ref false in
  let specs =
    Arg.align
      [
        ( "--workload",
          Arg.Set_string workload,
          "W enum-tour-medium, mutate-pp or fuzz-pp" );
        ( "--seed",
          Arg.Int (fun n -> seed := Some n),
          "N workload seed (default: the workload's default_seed)" );
        ( "--seconds",
          Arg.Set_float seconds,
          "S measure for S seconds (default 30, BENCHMARK.json's run_seconds)" );
        ( "--trace",
          Arg.Set_int trace,
          "0|1 1 gives the per-layer metrics of a traced run (default 0)" );
        ( "--self-test",
          Arg.Set self,
          " inject a wrong expectation and check it counts as a failure" );
      ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let expect =
    match J.parse (read_file expect_file) with
    | Ok j -> j
    | Error msg -> die "%s: %s" expect_file msg
    | exception Sys_error msg -> die "%s" msg
  in
  if !self then self_test expect;
  if !workload = "" then die "--workload is required";
  let e = field !workload expect in
  let seed = Option.value ~default:(default_seed e) !seed in
  let traced = !trace = 1 in
  let ws =
    List.map
      (fun s -> (s, make_workload !workload ~seed:s))
      (seeds_of !workload seed ~traced)
  in
  print_endline
    (J.to_string (result_json (measure ws ~expect:e ~seconds:!seconds ~traced)))
