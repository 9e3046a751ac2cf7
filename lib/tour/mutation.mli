(** Mutation analysis of test-generation methods on Mealy machines.

    Classic conformance-testing theory quantifies a method by its
    fault coverage over single-point mutants: {e output} mutants
    change one transition's output, {e transfer} mutants redirect one
    transition's destination.  A transition tour observes every
    transition's output at least once, so it kills every detectable
    output mutant — but it never verifies destination states, so
    transfer mutants whose wrong destination happens to echo the right
    outputs along the tour survive.  UIO-method checking experiments
    ({!Checking}) verify destinations too.

    This module builds all single-point mutants and scores both
    methods, the quantitative backdrop to the paper's Section 4
    discussion of what tour-based validation can and cannot see. *)

type kind = Output | Transfer

type mutant = {
  kind : kind;
  src : int;
  input : int;
  machine : Uio.Mealy.t;
}

val mutants : Uio.Mealy.t -> mutant list
(** All single-point mutants that differ from the original (output
    mutants rotate the output value; transfer mutants redirect to each
    other state). *)

val equivalent_mutant : Uio.Mealy.t -> mutant -> bool
(** The mutant is behaviourally equivalent to the specification — no
    black-box test can kill it. *)

val tour_kills : Uio.Mealy.t -> mutant -> bool
(** Replay a transition tour's input sequence (derived from the
    specification's state graph) on the mutant and compare outputs. *)

val checking_kills : Checking.experiment -> mutant -> bool

type score = {
  total : int;
  equivalent : int;  (** undetectable by any test *)
  tour_killed : int;
  checking_killed : int;
}

val score : ?uio_max_len:int -> Uio.Mealy.t -> score
(** Runs both methods over every mutant.
    @raise Checking.No_uio if the machine lacks UIOs. *)

