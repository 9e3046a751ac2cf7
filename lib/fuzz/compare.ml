open Avp_fsm
module Obs = Avp_obs.Obs
module Json = Avp_obs.Json
module Coverage = Avp_obs.Coverage
module Replay = Avp_vectors.Replay
module Campaign = Avp_mutate.Campaign

(* The generator comparison the Report's fuzz section carries: tours
   vs size-matched pure random vs the distilled fuzz corpus, scored
   on arc coverage, mutant kill rate, and vectors-to-kill.

   Fairness protocol:
   - the random baseline is size-matched to the fuzzer's FULL
     exploration budget — one uniform random walk per executed fuzz
     candidate with exactly its length (random has no feedback, so
     everything it generates is also what it replays);
   - the fuzz method replays only the kept corpus — the distillation
     is the point: coverage identical to the full exploration at a
     fraction of the replay vectors;
   - oracles: tours and fuzz carry per-cycle state-net predictions
     (their walks know the transition taken every cycle — for fuzz
     that is exactly the walk the loop checked the state nets
     against) plus
     output lockstep; pure random has output lockstep only, as in the
     mutation campaign.
   - candidates: vetted mutants minus graph-equivalent escapees (only
     mutants every method missed are checked for equivalence).

   Kill scoring goes through the mutation campaign's replay path
   ({!Avp_mutate.Campaign.detect}) on the fuzz run's engine.  On the
   sliced engine the sampled mutants leave lanes spare (16 mutants and
   the pristine golden lane take 17 of 62), so the tour, random and
   fuzz traces share one queue of 3 slots that replay different traces
   side by side: the tour's one long trace overlaps the short ones, and
   each set is simulated once, against the state and output oracles at
   the same time, with no recording pass.  An x/z escape on a checked
   net counts as a kill at vector cost 1 (the scalar oracle does not
   localize the escape cycle).

   Everything reported is deterministic: detection outcomes are the
   same for any engine, and no timings appear in the JSON. *)

type method_stats = {
  m_name : string;
  m_entries : int;
  m_cycles : int;  (* vectors replayed against each mutant *)
  m_gen_cycles : int;  (* vectors spent generating the set *)
  m_states : int;
  m_arcs : int;
  m_pairs : int;
  m_killed : int;
  m_rate : float;
  m_mean_v2k : float;
}

type t = {
  c_design : string;
  c_seed : int;
  c_mutants : int;
  c_vetted : int;
  c_equivalent : int;
  c_candidates : int;
  c_states_total : int;
  c_arcs_total : int;
  c_methods : method_stats list;  (* tour, random, fuzz *)
  c_missed : (string * int list) list;
      (* per method: candidate mutant ids it failed to kill *)
}

(* Uniform random walks size-matched to an arbitrary length profile
   (the fuzz run's executed candidates), as a tour set. *)
let random_walks ~seed (graph : Avp_enum.State_graph.t) (lengths : int array)
    =
  let rng = Random.State.make [| 0x667a7272; seed |] in
  let num_choices = Model.num_choices graph.Avp_enum.State_graph.model in
  Avp_tour.Tour_gen.of_traces
    (Array.map
       (fun len ->
         Avp_tour.Tour_gen.walk graph
           (Array.init len (fun _ -> Random.State.int rng num_choices)))
       lengths)

(* Coverage of a vector set, computed from its walk (every method's
   walk is exact on the pristine design — the replay theorems; for
   the fuzz corpus this provably equals the loop's committed
   coverage, a property the test suite checks). *)
let coverage_of_tours (graph : Avp_enum.State_graph.t)
    (tours : Avp_tour.Tour_gen.t) =
  let cov = Coverage.of_graph graph.Avp_enum.State_graph.adj in
  Array.iter
    (fun trace ->
      if Array.length trace > 0 then
        Coverage.mark_state cov trace.(0).Avp_tour.Tour_gen.src;
      Array.iter
        (fun (s : Avp_tour.Tour_gen.step) ->
          Coverage.mark_state cov s.Avp_tour.Tour_gen.dst;
          Coverage.mark_arc cov ~src:s.Avp_tour.Tour_gen.src
            ~dst:s.Avp_tour.Tour_gen.dst;
          Coverage.mark_pair cov ~state:s.Avp_tour.Tour_gen.src
            ~cls:s.Avp_tour.Tour_gen.choice)
        trace)
    tours.Avp_tour.Tour_gen.traces;
  cov

let min_cost a b =
  match (a, b) with
  | Some a, Some b -> Some (min a b)
  | (Some _ as c), None | None, c -> c

let total_cycles vecs =
  Array.fold_left (fun acc v -> acc + Array.length v) 0 vecs

let run ?(seed = 0) ?mutant_budget ?domains:_ ?progress ~(design : Avp_hdl.Ast.design) ~(tr : Translate.result)
    ~(graph : Avp_enum.State_graph.t) ~(tours : Avp_tour.Tour_gen.t) ~(fuzz : Loop.result) () =
  let top = tr.Translate.elab.Avp_hdl.Elab.top in
  (* The three vector sets, realized once. *)
  let rtours = random_walks ~seed graph fuzz.Loop.lengths in
  let ftours = Loop.tours_of_kept fuzz in
  let tvecs = Replay.vectors tr tours in
  let rvecs = Replay.vectors tr rtours in
  let fvecs = Replay.vectors tr ftours in
  let outs = Campaign.output_ports design ~top in
  (* Three phases of five single-oracle chains.  A method's cost is the
     earlier of its oracles' detections, so its two oracles must not
     chain (a chain stops the output oracle on the mutants the state
     oracle flagged); as independent chains they watch one replay. *)
  let phase vectors chains =
    { Campaign.vectors; chains = Array.map (fun o -> [| o |]) chains }
  in
  let phases =
    [|
      phase tvecs [| Campaign.States tours; Campaign.Outputs outs |];
      phase rvecs [| Campaign.Outputs outs |];
      phase fvecs [| Campaign.States ftours; Campaign.Outputs outs |];
    |]
  in
  let chain_vectors = [| tvecs; tvecs; rvecs; fvecs; fvecs |] in
  (* Mutants. *)
  let mutants =
    let all = Avp_mutate.Gen.all design in
    match mutant_budget with
    | None -> all
    | Some budget -> Avp_mutate.Gen.sample ~seed ~budget all
  in
  let mutants = Array.of_list mutants in
  let n = Array.length mutants in
  let vetted =
    Array.map
      (fun (m : Avp_mutate.Gen.mutant) ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Ok dut -> Some dut
        | `Stillborn _ | `Static _ -> None)
      mutants
  in
  let cands =
    Array.of_list
      (List.filter_map
         (fun i -> Option.map (fun dut -> (i, dut)) vetted.(i))
         (List.init n Fun.id))
  in
  (* First-detection vector cost of chain [k]'s outcome, or None if
     clean. *)
  let cost k = function
    | Campaign.Clean -> None
    | Campaign.Mismatch m -> Some (Replay.cycles_until chain_vectors.(k) m)
    | Campaign.Escape _ -> Some 1
  in
  let costs = Array.make n (None, None, None) in
  let lanes =
    match fuzz.Loop.config.Loop.engine with
    | `Scalar -> 1
    | `Sliced -> Avp_logic.Bv_sliced.lanes_limit
  in
  Campaign.detect ~lanes ~tr ~graph phases
    (Array.map snd cands)
    ~on_done:(fun ~t0 j o ->
      let i = fst cands.(j) in
      let c k = cost k o.(k) in
      let tour_cost = min_cost (c 0) (c 1)
      and rand_cost = c 2
      and fuzz_cost = min_cost (c 3) (c 4) in
      costs.(i) <- (tour_cost, rand_cost, fuzz_cost);
      if Obs.enabled () then
        Obs.complete ~cat:"fuzz" "fuzz.kill"
          ~dur_s:(Obs.Clock.now_s () -. t0)
          ~args:
            [
              ("mutant", Obs.Int mutants.(i).Avp_mutate.Gen.id);
              ("tour", Obs.Bool (tour_cost <> None));
              ("random", Obs.Bool (rand_cost <> None));
              ("fuzz", Obs.Bool (fuzz_cost <> None));
            ];
      match progress with
      | Some p -> Avp_obs.Progress.tick p
      | None -> ());
  (* Escapees of all three methods: graph equivalence decides whether
     they count as candidates at all. *)
  let equivalent = Array.make n false in
  Array.iteri
    (fun i dut ->
      match (dut, costs.(i)) with
      | Some dut, (None, None, None) -> (
        match Avp_mutate.Filter.equivalent ~pristine:graph dut with
        | `Equivalent -> equivalent.(i) <- true
        | `Different _ | `Unknown _ -> ())
      | _ -> ())
    vetted;
  let is_candidate i = vetted.(i) <> None && not equivalent.(i) in
  let candidates = ref 0 in
  let n_vetted = ref 0 in
  let n_equiv = ref 0 in
  for i = 0 to n - 1 do
    if vetted.(i) <> None then incr n_vetted;
    if equivalent.(i) then incr n_equiv;
    if is_candidate i then incr candidates
  done;
  let missed name pick =
    ( name,
      Array.to_list
        (Array.of_seq
           (Seq.filter_map
              (fun i ->
                if is_candidate i && pick costs.(i) = None then
                  Some mutants.(i).Avp_mutate.Gen.id
                else None)
              (Seq.init n Fun.id))) )
  in
  let stats name pick tours_of vecs ~gen_cycles =
    let cov = coverage_of_tours graph tours_of in
    let s = Coverage.summary cov in
    let killed = ref 0 in
    let cost_sum = ref 0 in
    for i = 0 to n - 1 do
      if is_candidate i then
        match pick costs.(i) with
        | Some c ->
          incr killed;
          cost_sum := !cost_sum + c
        | None -> ()
    done;
    {
      m_name = name;
      m_entries = Array.length tours_of.Avp_tour.Tour_gen.traces;
      m_cycles = total_cycles vecs;
      m_gen_cycles = gen_cycles;
      m_states = s.Coverage.states_seen;
      m_arcs = s.Coverage.arcs_seen;
      m_pairs = Coverage.pairs_seen cov;
      m_killed = !killed;
      m_rate =
        (if !candidates = 0 then 0.
         else float_of_int !killed /. float_of_int !candidates);
      m_mean_v2k =
        (if !killed = 0 then 0.
         else float_of_int !cost_sum /. float_of_int !killed);
    }
  in
  let pick1 (a, _, _) = a
  and pick2 (_, b, _) = b
  and pick3 (_, _, c) = c in
  let tour_stats =
    stats "tour" pick1 tours tvecs ~gen_cycles:(total_cycles tvecs)
  in
  let rand_stats =
    stats "random" pick2 rtours rvecs ~gen_cycles:(total_cycles rvecs)
  in
  let fuzz_stats =
    stats "fuzz" pick3 ftours fvecs ~gen_cycles:fuzz.Loop.explore_cycles
  in
  {
    c_design = top;
    c_seed = seed;
    c_mutants = n;
    c_vetted = !n_vetted;
    c_equivalent = !n_equiv;
    c_candidates = !candidates;
    c_states_total = Avp_enum.State_graph.num_states graph;
    c_arcs_total =
      (Coverage.summary (Coverage.of_graph graph.Avp_enum.State_graph.adj))
        .Coverage.arcs_total;
    c_methods = [ tour_stats; rand_stats; fuzz_stats ];
    c_missed = [ missed "tour" pick1; missed "random" pick2;
                 missed "fuzz" pick3 ];
  }

let json_of_method m =
  Json.Obj
    [
      ("method", Json.Str m.m_name);
      ("entries", Json.Int m.m_entries);
      ("cycles", Json.Int m.m_cycles);
      ("gen_cycles", Json.Int m.m_gen_cycles);
      ("states", Json.Int m.m_states);
      ("arcs", Json.Int m.m_arcs);
      ("pairs", Json.Int m.m_pairs);
      ("killed", Json.Int m.m_killed);
      ("rate", Json.Float m.m_rate);
      ("mean_vectors_to_kill", Json.Float m.m_mean_v2k);
    ]

let json_value (c : t) =
  Json.Obj
    [
      ("mutants", Json.Int c.c_mutants);
      ("vetted", Json.Int c.c_vetted);
      ("equivalent", Json.Int c.c_equivalent);
      ("candidates", Json.Int c.c_candidates);
      ("states_total", Json.Int c.c_states_total);
      ("arcs_total", Json.Int c.c_arcs_total);
      ("methods", Json.List (List.map json_of_method c.c_methods));
      ( "missed",
        Json.Obj
          (List.map
             (fun (name, ids) ->
               (name, Json.List (List.map (fun i -> Json.Int i) ids)))
             c.c_missed) );
    ]

let report_section (fuzz : Loop.result) (c : t) :
    Avp_obs.Report.fuzz_section =
  {
    Avp_obs.Report.fz_seed = fuzz.Loop.config.Loop.seed;
    fz_budget = fuzz.Loop.config.Loop.budget;
    fz_rounds = fuzz.Loop.rounds;
    fz_executed = fuzz.Loop.executed;
    fz_corpus = Array.length fuzz.Loop.kept;
    fz_explore_cycles = fuzz.Loop.explore_cycles;
    fz_arcs_total = c.c_arcs_total;
    fz_candidates = c.c_candidates;
    fz_methods =
      List.map
        (fun m ->
          {
            Avp_obs.Report.fz_method = m.m_name;
            fz_entries = m.m_entries;
            fz_cycles = m.m_cycles;
            fz_gen_cycles = m.m_gen_cycles;
            fz_states = m.m_states;
            fz_arcs = m.m_arcs;
            fz_pairs = m.m_pairs;
            fz_killed = m.m_killed;
            fz_rate = m.m_rate;
            fz_mean_v2k = m.m_mean_v2k;
          })
        c.c_methods;
  }

let find_method c name =
  List.find_opt (fun m -> m.m_name = name) c.c_methods

let pp ppf (c : t) =
  Format.fprintf ppf
    "generator comparison on %s: %d mutants, %d candidates (%d equivalent)@."
    c.c_design c.c_mutants c.c_candidates c.c_equivalent;
  Format.fprintf ppf "  %-8s %8s %8s %9s %9s %7s %8s %12s@." "method"
    "entries" "cycles" "arcs" "pairs" "killed" "rate" "mean-v2k";
  List.iter
    (fun m ->
      Format.fprintf ppf
        "  %-8s %8d %8d %5d/%-4d %9d %7d %7.1f%% %12.1f@." m.m_name
        m.m_entries m.m_cycles m.m_arcs c.c_arcs_total m.m_pairs m.m_killed
        (100. *. m.m_rate) m.m_mean_v2k)
    c.c_methods;
  List.iter
    (fun (name, ids) ->
      if ids <> [] then
        Format.fprintf ppf "  %s missed: %a@." name
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             Format.pp_print_int)
          ids)
    c.c_missed
