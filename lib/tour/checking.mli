(** UIO-method checking experiments for Mealy machines.

    The classic protocol-conformance recipe the paper's Section 5
    relates transition tours to ([ADL+91]): for every transition
    [s --a/o--> t] of the (minimal) specification, a subtest

    - resets the implementation,
    - runs a {e preamble} (shortest input word reset-state → [s]),
    - applies [a] and checks the output is [o],
    - applies [t]'s UIO sequence and checks its output signature,

    which verifies both the transition's output and its destination
    state.  A black-box implementation passing all subtests conforms
    on every transition — strictly stronger than a transition tour,
    which checks outputs but never destination states. *)

type subtest = {
  src : int;
  input : int;
  expected_output : int;
  preamble : int list;  (** inputs from reset to [src] *)
  uio : int list;  (** verification suffix for the destination *)
}

type experiment = {
  spec : Uio.Mealy.t;
  subtests : subtest list;
}

exception No_uio of int
(** A destination state has no UIO within the length bound (the
    machine may not be minimal). *)

val build : Uio.Mealy.t -> experiment
(** Subtests start from state 0, the reset state, and verify each
    destination with a UIO of at most 8 inputs.
    @raise No_uio when some reachable destination lacks a UIO. *)

val total_inputs : experiment -> int
(** Total input symbols across all subtests (cost measure). *)

type verdict =
  | Conforms
  | Fails of {
      subtest : subtest;
      at : [ `Transition | `Uio of int ];
      expected : int;
      got : int;
    }

val run : experiment -> Uio.Mealy.t -> verdict
(** Execute the experiment against a black-box implementation (same
    input alphabet; resettable by construction — every subtest starts
    from the implementation's state 0). *)

val pp_verdict : Format.formatter -> verdict -> unit
