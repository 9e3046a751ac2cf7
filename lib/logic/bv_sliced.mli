(** Bit-sliced (transposed) batched bitvectors.

    Where {!Bv} packs one vector's bits into two plane words, this
    module transposes the layout: a value is an array over {e design
    bits}, and bit L of each slot's plane words is that design bit in
    independent simulation lane L.  Up to {!lanes_limit} lanes advance
    word-parallel through every operation, and lane [l] of any
    operation is bit-identical to the corresponding scalar {!Bv}
    operation — the property the batched simulation engine and its
    differential tests rest on.

    There is no wide fallback and none is needed: width is the array
    length, so vectors wider than 62 bits work directly; only the
    {e lane} count is capped at 62 (bit 62 is the OCaml int sign
    bit).  The two-plane encoding per (bit, lane) is {!Bv}'s: defined
    iff the unknown bit is 0, else value=1 is X, value=0 is Z.

    The representation is exposed so the batched engine can do masked
    word writes in place; every [v]/[u] word must stay within
    [lanes_limit] bits (non-negative). *)

type t = {
  w : int;  (** design-bit width (array length of both planes) *)
  v : int array;  (** value plane, one word per design bit *)
  u : int array;  (** unknown plane, one word per design bit *)
}

val lanes_limit : int
(** 62: lanes per machine word. *)

val lmask : int
(** All-lanes mask, [(1 lsl lanes_limit) - 1]. *)

(** {1 Construction and lane access} *)

val make : int -> (int -> int * int) -> t
(** [make w f] builds a [w]-bit value whose bit [j] has the
    [(value, unknown)] plane words [f j] (masked to {!lmask}). *)

val broadcast : Bv.t -> t
(** Every lane holds the given vector. *)

val of_lanes : Bv.t array -> t
(** Lane [l] holds the [l]-th vector; all must share one width, and
    there must be 1..62 of them.  Unoccupied lanes replicate lane 0. *)

val lane : t -> int -> Bv.t
(** Extract one lane as a scalar vector. *)

val create : int -> t
(** An all-zero (every lane defined 0) value of the given width — the
    destination-buffer constructor for the [*_into] ops. *)

(** {1 Structural}

    Every op but {!resize} and {!resolve} fills a caller-owned
    destination [dst], its first argument, whose width must equal the
    natural result width, and [dst] must not alias an operand.  The
    batched engine preallocates one destination per compiled expression
    node, so its settle loop allocates nothing. *)

val resize : t -> int -> t
(** Zero-extends or truncates, as {!Bv.resize}. *)

val select_into : t -> t -> lo:int -> unit
(** [select_into dst t ~lo] extracts [dst.w] bits from [lo] up. *)

val merge_into : mask:int -> t -> t -> t -> unit
(** [merge_into ~mask dst a b]: lanes in [mask] from [a], the rest from
    [b] — the mutant-schemata select.  Operands are zero-extended to
    the wider width. *)

(** {1 Bitwise logic} (per-lane identical to the {!Bv} ops) *)

val logand_into : t -> t -> t -> unit
val logor_into : t -> t -> t -> unit
val logxor_into : t -> t -> t -> unit
val lognot_into : t -> t -> unit

val resolve : t -> t -> t
(** Wire resolution of two drivers, as {!Bv.resolve}. *)

(** {1 Reductions, truth and logical connectives} — 1-bit results *)

val reduce_and_into : t -> t -> unit
val reduce_or_into : t -> t -> unit
val reduce_xor_into : t -> t -> unit

val truth : t -> int * int * int
(** [(t1, t0, tx)] lane masks of the vector's truth value as a
    condition: some bit 1 / all bits 0 / undecidable.  The three masks
    partition {!lmask}. *)

val logical_and_into : t -> t -> t -> unit
(** [&&] with both sides fully evaluated (no short circuit), X when
    either side is undecided — the interpreter's semantics. *)

val logical_or_into : t -> t -> t -> unit
val logical_not_into : t -> t -> unit

(** {1 Arithmetic} — any undefined bit makes that lane all-X *)

val add_into : t -> t -> t -> unit
val sub_into : t -> t -> t -> unit
val mul_into : t -> t -> t -> unit
val neg_into : t -> t -> unit

(** {1 Relational} — 1-bit results, X on any undefined input bit *)

val eq_into : t -> t -> t -> unit
val neq_into : t -> t -> t -> unit
val lt_into : t -> t -> t -> unit
val le_into : t -> t -> t -> unit
val gt_into : t -> t -> t -> unit
val ge_into : t -> t -> t -> unit

val case_eq_into : t -> t -> t -> unit
(** Verilog [===]: always defined. *)

val case_neq_into : t -> t -> t -> unit

(** {1 Mux} *)

val mux_into : sel:t -> t -> t -> t -> unit
(** [mux_into ~sel dst a b]: per-lane ternary on [sel]'s truth value:
    true lanes take [a], false lanes [b], undecided lanes the X-select
    mux (bits where both operands agree defined survive). *)

(** {1 Per-lane shifts and dynamic index} *)

val shift_left_into : t -> t -> t -> unit
(** [shift_left_into dst t amt]: [dst] is [t]'s width; lanes with an
    undefined amount are all-X, amounts >= width shift to zero.  An
    amount wider than {!Bv.packed_width_limit} counts as undefined,
    matching [Bv.to_int] on the wide representation (the scalar
    engines' behaviour). *)

val shift_right_into : t -> t -> t -> unit

val index_into : t -> t -> t -> unit
(** [index_into dst t i]: 1-bit dynamic bit-select [t[i]]; undefined
    or out-of-range lanes read X. *)

val eq_const_lanes : t -> int -> int
(** Lanes where the value equals the constant with every bit defined
    (an index/amount wider than {!Bv.packed_width_limit} never
    matches).  The building block for decoded per-lane writes. *)
