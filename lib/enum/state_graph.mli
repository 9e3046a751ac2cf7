(** Full state enumeration (step 2 of the paper's methodology).

    Breadth-first search from the reset state; at every state all
    combinations of choice-variable values are permuted, "resulting in
    the discovery of all reachable states, no matter how improbable a
    sequence of interactions is needed to reach it".

    A model with a whole-state entry point ({!Model.t.successor_keys},
    a translated HDL model) answers each state in one call: the packed
    successor key of every choice, from which the enumerator fills the
    state's slots, probing its intern table once per distinct
    successor.  Every other model is expanded as below.

    The permutation is a decision tree per state rather than one
    transition evaluation per combination.  The transition reads its
    choices through a function ({!Model.t.next_into}); the enumerator
    branches on a choice variable at its first read, value 0 first,
    and walks the tree depth first.  Each leaf costs one evaluation and
    stands for a {e cube}: the choice indices that agree with the
    values read on its path, which all share its successor.  Every
    choice index belongs to exactly one leaf, so every combination is
    still covered.  Leaves are merged in order of their cubes' lowest
    index, which makes the state numbering and the edges exactly those
    of trying the combinations one by one in index order.

    Each graph edge carries the choice combination (the {e condition})
    that caused the transition.  By default, as in the paper, "only
    one is recorded" per (src, dst) pair — the first condition tried.
    [~all_conditions:true] applies the fix discussed in Section 4,
    recording every distinct condition as a parallel edge (this is how
    the Figure 4.2 class of bug becomes detectable).

    Enumeration is sequential, one BFS level at a time.

    The enumeration keeps a {e successor row} for every state whose
    decision tree gave each choice index a leaf of its own (every state
    of a model answered by its whole-state entry point): byte [c] of
    the row is the position in [adj.(s)] of the edge to choice [c]'s
    successor.  Equal rows are stored once.  {!successor} answers
    model walks from the rows.  A state keeps no row when a leaf
    stands for several choices (a decision-tree model leaves a choice
    unread) or when an edge's position does not fit in a byte.
    See DESIGN.md, "Enumeration". *)

open Avp_fsm

type stats = {
  num_states : int;
  num_edges : int;
  state_bits : int;  (** the paper's "number of bits per state" *)
  elapsed_s : float;
  heap_mb : float;  (** major-heap size at completion, in MB *)
  level_times : (int * float) array;
      (** per BFS level: (sources expanded, seconds) *)
}

type index
(** Valuation -> state id, built during enumeration: a {!Model.Tbl}
    whose keys are the valuation arrays of [states] themselves, not
    copies. *)

type t = {
  model : Model.t;
  states : int array array;  (** state id -> valuation; id 0 is reset *)
  adj : (int * int) array array;
      (** state id -> ordered (dst, choice index) pairs *)
  rows : Bytes.t array;
      (** state id -> its successor row, of length
          {!Avp_fsm.Model.num_choices}; empty for a state without one,
          and [[||]] when no state has one.  Equal rows are physically
          shared. *)
  stats : stats;
  index : index;
}

exception Too_many_states of int

val enumerate :
  ?all_conditions:bool ->
  ?max_states:int ->
  ?domains:int ->
  ?progress:Avp_obs.Progress.t ->
  Model.t ->
  t
(** [domains] is ignored, kept because perfbench/main.ml passes it.

    @raise Too_many_states when the [max_states] bound (default
    5_000_000) is exceeded. *)

val reset_id : t -> int
(** Always 0. *)

val num_states : t -> int
val num_edges : t -> int

val find_state : t -> int array -> int option
(** Look up a state id by valuation — a constant-time probe of the
    enumeration-time index.  [None] for a valuation that is not an
    enumerated state, including one of the wrong length or with a value
    outside its variable's domain. *)

val successor : t -> int -> int -> int option
(** [successor g s c] is the state the model reaches from state [s]
    under flat choice index [c]: [find_state g (g.model.next
    g.states.(s) (Model.choice_of_index g.model c))].  A state with a
    row answers from it, without running the model; any other state
    asks [g.model.next], and [None] then means the model left the
    graph.
    @raise Invalid_argument naming [c] when it is outside
    [0, Model.num_choices g.model - 1]. *)

val out_degree : t -> int -> int

val edge_offsets : t -> int array
(** Prefix sums assigning each edge a dense global index: edge [k] of
    state [s] has index [offsets.(s) + k]. *)

val pp_stats : Format.formatter -> stats -> unit
val report_section : stats -> Avp_obs.Report.enum_section

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering (small graphs only). *)

val value_coverage : t -> bool array array
(** [state var index -> value -> some enumerated state holds it] — the
    dynamic ground truth the static analyser's per-variable
    reachability claims are checked against (statically-unreachable
    must be a subset of dynamically-unreachable). *)

val absorbing_states : t -> int list
(** States every one of whose transitions self-loops: the machine can
    never leave them.  Coverage-driven validation does not check
    liveness, so deadlocks hide in plain sight unless surfaced —
    report them alongside enumeration statistics. *)

val is_deterministic_image : t -> bool
(** True when no state has two outgoing edges with the same recorded
    condition — a sanity check of the first-condition labelling. *)
