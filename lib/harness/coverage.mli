(** Arc coverage measurement.

    Runs the RTL under a stimulus while projecting each cycle's
    control observation onto the abstract state space, and counts
    which arcs of the enumerated state graph the implementation
    actually traversed.  This is the feedback signal of
    coverage-driven validation: the generated vectors aim to push it
    to 100%, random vectors plateau well below — the mutation
    campaign's per-mutant [missed_by] field names exactly which
    mutants hide in that plateau, and the coverage-guided fuzzer
    ({!Avp_fuzz.Loop} and {!Isa_fuzz}) uses the incremental
    {!run_delta} form of this signal to climb out of it.

    Counting itself lives in the generic {!Avp_obs.Coverage}; this
    module supplies the RTL observation projection and re-exports the
    summary so its numbers are the same ones the unified reports
    aggregate. *)

type t = Avp_obs.Coverage.summary = {
  states_seen : int;
  states_total : int;
  arcs_seen : int;
  arcs_total : int;
  unmapped : int;
      (** cycles whose observation is not a reachable abstract state —
          abstraction mismatch, expected to be rare *)
}

val state_fraction : t -> float
val arc_fraction : t -> float
val pp : Format.formatter -> t -> unit

type accumulator

val create : Avp_pp.Control_model.cfg -> Avp_enum.State_graph.t -> accumulator

val run :
  ?config:Avp_pp.Rtl.config ->
  ?max_cycles:int ->
  accumulator ->
  Drive.stimulus ->
  unit
(** Accumulates coverage from one stimulus run (coverage composes
    across runs, like the union of tour traces). *)

val run_delta :
  ?config:Avp_pp.Rtl.config ->
  ?max_cycles:int ->
  accumulator ->
  Drive.stimulus ->
  Avp_obs.Coverage.counts
(** {!run} plus the counter movement the run caused
    ({!Avp_obs.Coverage.delta} of the before/after snapshots) — the
    keep-or-discard feedback signal of the coverage-guided fuzzing
    loop. *)

val result : accumulator -> t
