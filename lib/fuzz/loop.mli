(** The coverage-guided mutational fuzzing loop.

    Rounds of [batch] candidates — fresh random entries while the
    corpus is empty, then mutations of energy-picked corpus seeds.  A
    round plans each candidate as a model walk ({!Exec.plan}),
    executes the batch on the compiled or bit-sliced engine checking
    that the design takes exactly the planned walks ({!Exec.run}),
    and folds the plans sequentially in batch order: a candidate is
    kept iff committing its walk's marks moves the coverage counters
    (new state, new arc, or new (state, input-class) pair, via the
    incremental {!Avp_obs.Coverage.delta}).  Discarded candidates
    commit nothing, so the kept corpus's coverage is exactly the
    run's coverage — the invariant {!replay} re-checks.

    The energy schedule favors rare arcs: a seed's weight is the sum
    over its arcs of 1/(corpus entries hitting that arc), computed
    once per round.

    Determinism: candidate generation draws from one seeded PRNG
    before evaluation, and evaluation results are positionally
    indexed — the final corpus and coverage set are byte-identical
    for either engine. *)

type config = {
  seed : int;
  budget : int;  (** candidate executions, initial population included *)
  batch : int;  (** candidates per round *)
  init_len : int;  (** length of initial random entries *)
  max_len : int;  (** entry length bound *)
  engine : [ `Scalar | `Sliced ];
  domains : int;  (** ignored, kept because perfbench/main.ml sets it *)
}

val default_config : config
(** seed 0, budget 512, batch 31, init_len 16, max_len 96, sliced
    engine. *)

type kept = {
  entry : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;
  round : int;
  gain : Avp_obs.Coverage.counts;  (** the delta that earned the keep *)
}

type result = {
  design : string;
  config : config;
  rounds : int;
  executed : int;
  kept : kept array;  (** in keep order *)
  lengths : int array;  (** per executed candidate, in order *)
  coverage : Avp_obs.Coverage.t;
  explore_cycles : int;  (** total vectors spent exploring *)
}

exception Diverged of string
(** A candidate's execution left its planned model walk: a state net
    mismatched the walk's predicted state or carried x/z bits.  The
    message names the round, the candidate and the first divergence.
    On the translated design itself this is a translation/replay bug,
    not a user error. *)

val run :
  ?progress:Avp_obs.Progress.t ->
  config:config ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  result
(** Emits one [fuzz.round] span per round, with deterministic args,
    around the execution spans {!Exec.run} emits for its engine.
    @raise Diverged as described above. *)

val replay :
  ?progress:Avp_obs.Progress.t ->
  config:config ->
  Corpus.t ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  (result, string) Stdlib.result
(** Re-run a persisted corpus byte-identically: entries evaluate in
    keep order through the same fold, every entry must still earn its
    keep, and the resulting coverage equals the growing run's.
    Returns [Error] for a corpus from another design, a malformed
    entry, or an entry that adds no coverage (stale corpus). *)

val corpus : result -> Avp_fsm.Translate.result -> Corpus.t
val tours_of_kept : result -> Avp_tour.Tour_gen.t
(** The kept corpus as a tour set — the form the kill comparison
    replays against mutants. *)
