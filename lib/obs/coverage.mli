(** Generic state/arc coverage counting over an enumerated state
    graph — the single implementation behind every coverage number
    the repo reports (the RTL arc-coverage harness, the unified
    {!Report}s and the lib/fuzz feedback loop all delegate here). *)

type summary = {
  states_seen : int;
  states_total : int;
  arcs_seen : int;
  arcs_total : int;
  unmapped : int;
      (** observations that did not project onto the declared space *)
}

type counts = {
  c_states : int;
  c_arcs : int;
  c_pairs : int;
  c_unmapped : int;
}
(** O(1) snapshot of the running totals.  Subtracting two snapshots
    ({!delta}) is the incremental feedback signal of the
    coverage-guided fuzzer: marks only ever add, so every component
    of a [delta ~before ~after] taken across a batch of marks is
    non-negative, and summing consecutive deltas reproduces a
    from-scratch recount. *)

type t
(** Dense sets: the declared arcs as one ascending destination array
    per source, with a seen byte per arc id, and the pairs as a bitset
    over classes per state.

    Negative ids: {!create} rejects a declared arc with a negative
    endpoint; the marks ignore a negative state, arc endpoint or
    class, and the queries answer [false] for one. *)

val create : num_states:int -> arcs:(int * int) array -> t
(** [arcs] are the declared (src, dst) pairs; duplicates collapse.  A
    source may lie beyond [num_states]: its arcs are declared like
    any other, though the state itself is never counted.
    @raise Invalid_argument when an arc has a negative endpoint. *)

val of_graph : (int * int) array array -> t
(** From an adjacency array of (dst, condition) rows — the
    [State_graph.adj] layout; parallel conditions collapse to
    distinct (src, dst) pairs for arc-coverage purposes. *)

val mark_state : t -> int -> unit
val mark_arc : t -> src:int -> dst:int -> unit
(** Counted only when (src, dst) was declared.  O(log out-degree). *)

val arc_id : t -> src:int -> dst:int -> int
(** The declared arc's dense id, in [0, arcs_total), ordered by source
    and then by destination; [-1] when (src, dst) was not declared.
    O(log out-degree) — the key a caller indexes its own per-arc
    arrays by. *)

val mark_pair : t -> state:int -> cls:int -> unit
(** Mark a (state, input-class) pair: the design sat in [state] while
    input class [cls] (a flat choice index) was applied.  Finer than
    arc coverage — two classes taking the same (src, dst) arc are two
    pairs.  Counted only for in-range states and non-negative
    classes; the class space is open, and a state's bitset grows to
    the largest class marked there. *)

val mark_unmapped : t -> unit

val seen_state : t -> int -> bool
val seen_arc : t -> src:int -> dst:int -> bool
val seen_pair : t -> state:int -> cls:int -> bool
val arc_declared : t -> src:int -> dst:int -> bool
(** Membership queries; the fuzzer's keep decision peeks before
    committing marks.  [seen_state] and [seen_pair] are O(1);
    [seen_arc] and [arc_declared] are O(log out-degree), a binary
    search of the source's destinations. *)

val counts : t -> counts
(** O(1): running totals maintained incrementally by the mark
    functions, never recomputed by scanning. *)

val delta : before:counts -> after:counts -> counts
(** Component-wise [after - before]. *)

val progress : counts -> bool
(** [true] iff the delta carries any new state, arc or pair. *)

val summary : t -> summary
val pairs_seen : t -> int

val state_fraction : summary -> float
val arc_fraction : summary -> float
val pp : Format.formatter -> summary -> unit
val to_json : summary -> Json.t
