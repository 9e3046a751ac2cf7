(** The generator comparison: transition tours vs size-matched pure
    random vs the distilled fuzz corpus, scored against the same
    vetted mutant population on arc coverage, kill rate, and
    vectors-to-kill.

    Fairness protocol:
    - the random baseline is size-matched to the fuzzer's {e full}
      exploration budget — one uniform random walk per executed fuzz
      candidate, with exactly its length (random has no feedback, so
      everything it generates is also what it must replay);
    - the fuzz method replays only its kept corpus; its generation
      cost is the full exploration budget ([explore_cycles]);
    - tours and fuzz detect through per-cycle state-net predictions
      {e and} output lockstep (their walks predict every transition —
      for fuzz that is exactly the walk the loop checked the state
      nets against); pure random detects through output lockstep only,
      the observability asymmetry of the mutation campaign;
    - mutants every method misses are checked for graph equivalence
      and excluded from the candidate denominator.

    Kill scoring goes through the mutation campaign's replay path,
    {!Avp_mutate.Campaign.detect}, on the fuzz run's engine
    ([config.engine]; 62 lanes, or one on the scalar engine): three
    phases (tour, random, fuzz) of five
    independent single-oracle chains (tour states, tour outputs,
    random outputs, fuzz states, fuzz outputs), so on the sliced engine
    each chunk of up to 61 mutants costs one schemata pass that
    replays every set once, in ⌊62/(chunk + 1)⌋ slots that take the
    three sets' traces side by side, each slot's golden lane
    supplying the pristine outputs.  A method's vectors-to-kill is the
    earlier of its oracles' detections; an x/z escape costs 1.

    Deterministic: the outcomes are identical for any engine, and the
    JSON carries no timings. *)

type method_stats = {
  m_name : string;
  m_entries : int;
  m_cycles : int;  (** vectors replayed against each mutant *)
  m_gen_cycles : int;  (** vectors spent generating the set *)
  m_states : int;
  m_arcs : int;
  m_pairs : int;  (** (state, input-class) pairs covered *)
  m_killed : int;
  m_rate : float;  (** killed / candidates *)
  m_mean_v2k : float;  (** mean vectors-to-kill over its kills *)
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
  c_methods : method_stats list;  (** tour, random, fuzz — in order *)
  c_missed : (string * int list) list;
      (** per method, candidate mutant ids it failed to kill *)
}

val run :
  ?seed:int ->
  ?mutant_budget:int ->
  ?domains:int ->
  ?progress:Avp_obs.Progress.t ->
  design:Avp_hdl.Ast.design ->
  tr:Avp_fsm.Translate.result ->
  graph:Avp_enum.State_graph.t ->
  tours:Avp_tour.Tour_gen.t ->
  fuzz:Loop.result ->
  unit ->
  t
(** Emits one [fuzz.kill] span per vetted mutant.  [mutant_budget]
    samples the mutant population (default: exhaustive); [progress]
    ticks once per vetted mutant.  [domains] is ignored, kept because
    perfbench/main.ml passes it. *)

val find_method : t -> string -> method_stats option
val json_value : t -> Avp_obs.Json.t
val report_section : Loop.result -> t -> Avp_obs.Report.fuzz_section
val pp : Format.formatter -> t -> unit
