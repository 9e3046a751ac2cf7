(** The mutation kill campaign (the Table 2.1 claim as a score).

    Mutants are generated from the pristine parsed design, vetted
    ({!Filter.vet}), and every survivor of the vetting is simulated
    against two vector sets realized once from the {e pristine}
    model: the transition-tour vectors and a size-matched random
    baseline (uniform random choice-variable walks with the same
    trace-length profile — i.e. random stimulus on the abstracted
    interface nets).  The oracles mirror the paper's Table 2.1
    comparison: tour vectors carry a per-cycle prediction of every
    annotated state net (the tour knows exactly which transition is
    taken each cycle) as well as the expected outputs, while the
    random baseline has golden-model lockstep comparison of the
    design's {e output ports} only — without the enumerated tour
    there is no per-cycle state prediction to check against.  Both
    oracles also observe the post-reset state (reported as cycle -1),
    and a checked net carrying x/z bits is itself a kill.

    Mutants that escape both vector sets are re-enumerated and
    checked for graph equivalence ({!Filter.equivalent}); genuinely
    inequivalent escapees are the survivors listed for triage. *)

type classification =
  | Stillborn of string  (** does not elaborate *)
  | Killed_static of string  (** rejected by the static analyser *)
  | Killed_absint of string
      (** proven divergent by abstract interpretation ({!Filter.prune}):
          a checked net's post-reset invariants are disjoint, so every
          replay observation differs — killed with zero simulated
          cycles *)
  | Killed of { by_tour : bool; by_random : bool; detail : string }
  | Equivalent  (** state graph identical to the pristine design *)
  | Survived of string  (** escaped both vector sets; why not equivalent *)

type result = { mutant : Gen.mutant; cls : classification }

type family_score = {
  family : Op.family;
  total : int;
  stillborn : int;
  killed_static : int;
  killed_absint : int;
  equivalent : int;
  killed_tour : int;
  killed_random : int;
  survived : int;
  candidates : int;
      (** denominator: total − stillborn − static − absint − equivalent *)
}

type report = {
  design : string;
  seed : int;
  total : int;
  results : result array;  (** in mutant-id order *)
  families : family_score list;  (** in {!Op.all_families} order *)
  candidates : int;
  tour_killed : int;
  random_killed : int;
  tour_rate : float;
  random_rate : float;
  tour_cycles : int;  (** vector budget of the tour set *)
  random_cycles : int;  (** vector budget of the random baseline *)
}

val random_tours :
  seed:int -> Avp_enum.State_graph.t -> Avp_tour.Tour_gen.t ->
  Avp_tour.Tour_gen.t
(** The random baseline: one random walk per tour trace with exactly
    the same length, choices drawn uniformly from the graph's model's
    choice space by a seeded PRNG, walked through
    {!Avp_tour.Tour_gen.walk} (the successors always exist in the
    fully-enumerated graph). *)

val output_ports : Avp_hdl.Ast.design -> top:string -> string array
(** The output ports of module [top], in declaration order — the nets
    a golden-model lockstep comparison can observe. *)

(** {2 Mutant detection}

    The one replay path every kill score goes through: the campaign
    below and the fuzz generator comparison. *)

type oracle =
  | States of Avp_tour.Tour_gen.t
      (** every annotated state net against the walk's predicted state,
          per cycle ({!Avp_vectors.Replay.check}) *)
  | Outputs of string array
      (** the named nets against the pristine design under the same
          vectors, per cycle: on the sliced engine its golden lane, on
          the scalar engine its recorded rows
          ({!Avp_vectors.Replay.record}, {!Avp_vectors.Replay.check_nets}).
          Every output oracle of one {!detect} call names the same
          nets. *)

type phase = {
  vectors : Avp_vectors.Vector.t array;
      (** realized once from the pristine model; one trace per walk of
          every [States] oracle *)
  chains : oracle array array;
      (** independent chains, all watching one replay of [vectors].
          Within a chain the oracles are checked in order: an oracle's
          outcome counts only for mutants every earlier oracle of the
          chain passed clean *)
}

type outcome =
  | Clean
  | Mismatch of Avp_vectors.Replay.mismatch  (** the first mismatch *)
  | Escape of string
      (** a checked net carried x/z bits (or the replay raised); the
          string is the full detail text *)

val detect :
  lanes:int ->
  tr:Avp_fsm.Translate.result ->
  graph:Avp_enum.State_graph.t ->
  on_done:(t0:float -> int -> outcome array -> unit) ->
  phase array ->
  Avp_hdl.Elab.t array ->
  unit
(** Replay every phase against every vetted mutant elaboration (each
    an elaboration of a mutant of the design [tr] was translated from)
    and report, per mutant, each chain's first issue.
    [on_done ~t0 j outcomes] runs exactly once per mutant [j], with
    one outcome per chain, in phase order and then chain order; [t0]
    is when work attributable to that mutant alone began.

    With [lanes] ≥ 2 ([lanes] clamped to 1..62) each chunk of [k] ≤
    [lanes] − 1 mutants runs once on the sliced engine, which compiles
    [tr]'s design as mutant schemata
    ({!Avp_hdl.Sliced.create_schemata}) over slots of
    [k + 1] lanes, the chunk plus the pristine design as the slot's
    golden lane, ⌊[lanes]/([k] + 1)⌋ slots, and replays every phase's
    traces through one queue ({!Avp_vectors.Slots}): each slot replays
    its own trace, so 16 mutants run 3 traces side by side, and a
    phase's long trace overlaps the other phases' short ones.  An
    output oracle compares each mutant lane with its slot's golden lane
    in the same step, so nothing is recorded.  Each chunk emits one
    [mutate.pass] span with its [lanes], [slots], [scheduled] mutants
    and [traces] replayed.  Traces finish out of order, so outcomes are
    combined by trace index: per (chain, oracle, mutant) the
    lowest-trace escape wins over every mismatch, otherwise the
    lowest-trace mismatch wins, and a chained oracle counts only when
    every earlier oracle of its chain is clean.  Mutants the schemata
    kernel cannot carry (structural divergence beyond one expression
    site, or a mutation-induced comb loop that aborts the shared word)
    fall back to the scalar path.

    With [lanes] < 2, which leaves no room for a golden lane, or with
    no mutant, the scalar engine records the pristine outputs of every
    phase with an output oracle on the interpreter up front
    ({!Avp_vectors.Replay.record}, in phase order), then replays mutant
    by mutant.  Outcomes — escape texts included — are identical
    for any engine and lane count.
    @raise Avp_fsm.Translate.Unsupported on either engine, before it
    reports any outcome, when the pristine design drives an output x/z:
    the interpreter recording's message, from the first such trace in
    phase and trace order.
    @raise Invalid_argument when two output oracles name different
    nets. *)

val run :
  ?families:Op.family list ->
  ?seed:int ->
  ?budget:int ->
  ?domains:int ->
  ?top:string ->
  ?progress:Avp_obs.Progress.t ->
  ?engine:[ `Scalar | `Sliced ] ->
  ?lanes:int ->
  design:Avp_hdl.Ast.design ->
  tr:Avp_fsm.Translate.result ->
  graph:Avp_enum.State_graph.t ->
  tours:Avp_tour.Tour_gen.t ->
  unit ->
  report
(** [seed] (default 1) drives both the mutant sample and the random
    baseline; [budget] bounds the number of mutants (default: all).
    [domains] is ignored, kept because perfbench/main.ml passes it.

    [engine] (default [`Sliced]) selects the replay backend; [`Scalar]
    runs {!detect} on one lane.
    Mutants are vetted up front; the survivors go through {!detect}
    in two phases: the tour vectors with one chain, the state oracle
    before the output oracle, and the random vectors with the output
    oracle.  [`Sliced] classifies up to [lanes] − 1 (default 61)
    mutants word-parallel per pass, next to the golden lane —
    ceil(candidates/(lanes − 1)) chunks instead of one full replay per
    mutant.  Classifications — including kill details and x/z escape
    messages — are byte-identical between engines and for any [lanes]
    value; {!to_json} is the equality witness the test suite checks. *)

val to_json : report -> string
(** Deterministic machine-readable report: header rates, per-family
    scores, every mutant's classification, and the survivor list.
    Contains no timings, so byte-equal output is a correctness
    property across runs and engines. *)

val report_section : report -> Avp_obs.Report.mutation_section
(** The campaign's scores as a section of a unified
    {!Avp_obs.Report}, family breakdown included. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable summary table plus the survivor list. *)
