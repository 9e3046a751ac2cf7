(** Model checker-lite over {!Avp_fsm.Model}.

    The transition function is a black box, so "static" means a
    cartesian abstract interpretation: one possibly-reachable value
    set per state variable, iterated to a fixpoint by evaluating every
    choice combination on every tuple of the product of the sets.  A
    tuple's successors are packed keys ({!Avp_fsm.Model.pack}) from the
    model's whole-state entry point ({!Avp_fsm.Model.t.successor_keys})
    when it has one, a translated model answering 62 choices per
    simulator step; else valuations from one [next_into] per choice,
    which also serves a model whose states do not pack into an int.
    The abstraction over-approximates the concrete reachable set, so
    unreachability claims are sound: statically-unreachable is a
    subset of dynamically-unreachable (cross-checked against the
    enumerator on pp_control in the test suite).

    When the product exceeds the evaluation budget — or the transition
    raises, as HDL-backed models can on abstract states the simulator
    never produces — the analysis marks itself [capped] and emits no
    claims at all rather than unsound ones. *)

open Avp_fsm

type result = {
  model : Model.t;
  reachable_values : bool array array;
      (** state var index -> value -> possibly reachable *)
  sinks : int array list;
      (** abstract tuples every choice combination maps to itself;
          restricted to reachable states these coincide with
          [State_graph.absorbing_states] *)
  capped : bool;
  evals : int;
      (** transition-function evaluations performed: every choice of
          each tuple whose successors all came back *)
  findings : Finding.t list;
      (** rules: [fsm-unreachable], [fsm-sink], [fsm-dead-choice],
          [fsm-choice-overlap]; or [fsm-check-capped] alone *)
}

val analyze : Model.t -> result
(** At most 2,000,000 transition evaluations; past that the result is
    [capped]. *)

val findings : result -> Finding.t list
