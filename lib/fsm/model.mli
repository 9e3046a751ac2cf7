(** Synchronous FSM models in the style of Synchronous Murphi.

    A model has typed {e state variables} (updated only by the
    implicit clock) and {e choice variables} — the nondeterministic
    abstract blocks of the paper, which "try every combination of
    values" during state enumeration.  The transition function is a
    pure function of a state valuation and a choice valuation.

    Valuations are [int array]s indexed by variable position, each
    entry in [0, card var - 1]. *)

type var = {
  name : string;
  values : string array;  (** value names; cardinality is the length *)
}

val var : string -> string array -> var

val bool_var : string -> var
(** A variable with values ["0"] and ["1"]. *)

val card : var -> int

type t = {
  model_name : string;
  state_vars : var array;
  choice_vars : var array;
  reset : int array;
  next : int array -> int array -> int array;
      (** [next state choices] must be pure and total.  One transition
          per call: the oracle of [next_into] and [successor_keys], and
          the step of a walk from a state whose enumeration kept no
          successor row. *)
  next_into : int array -> (int -> int) -> int array -> unit;
      (** [next_into state read dst] writes into [dst] (length = number
          of state variables) the successor of [state] under the choice
          valuation whose variable [i] has value [read i] — the
          state-enumeration hot path of a model without
          [successor_keys].  Semantically identical to [next]; [state]
          is only read during the call, and the caller may reuse it.

          The contract on [read], which lets the enumerator expand a
          state as a decision tree instead of trying every choice
          combination:
          - read a choice only through [read], and only where its value
            can change the successor: every choice variable left unread
            is taken to have no effect on it;
          - reads must be deterministic: the same state and the same
            answers give the same reads in the same order.  The
            enumerator may run a state's transition many times, once
            per leaf of its decision tree, and branches on a variable
            at its first read. *)
  successor_keys : (int array -> int array -> unit) option;
      (** The whole-state entry point of a model that answers all of a
          state's choices at once (a translated HDL model evaluates 62
          per simulator step): [keys state dst] writes into [dst.(c)],
          for every flat choice index [c] ({!choice_of_index}), the
          {!pack}ed successor of [state] under [c], i.e. [pack t (next
          state (choice_of_index t c))].  [dst] has at least
          {!num_choices} entries; [state] is only read during the call.
          The enumerator and the FSM checks use it in place of
          [next_into].  [None] for a model without one, and for any
          model whose state space does not fit in an int. *)
}

val create :
  ?next_into:(int array -> (int -> int) -> int array -> unit) ->
  ?successor_keys:(int array -> int array -> unit) ->
  name:string ->
  state_vars:var list ->
  choice_vars:var list ->
  reset:int list ->
  next:(int array -> int array -> int array) ->
  unit ->
  t
(** [next_into] defaults to reading every choice in order, calling
    [next] and blitting the result.  [successor_keys] is dropped when
    the product of the state variables' cardinalities exceeds
    [max_int + 1], so that every key is a non-negative int. *)

val pack : t -> int array -> int
(** A state valuation as one int, mixed radix over the state variables
    with variable 0 most significant: [((v0 * card1) + v1) * card2 +
    v2 …].  A translated design's state packs into the sum of its state
    nets' widths (pp: 10 bits).
    @raise Invalid_argument on a value outside its variable's domain,
    or a key beyond [max_int]. *)

val pack_digits : var -> int array -> int -> int array -> int -> unit
(** [pack_digits var keys off values n] appends [values.(l)], a value
    of [var], to [keys.(off + l)] as its least significant digit, for
    each [l < n].  Keys set to 0 and passed through it once per state
    variable, from variable 0 on, are the {!pack}s of [n] states at
    once.  No range or overflow check: for the states of a model whose
    [successor_keys] {!create} kept. *)

val unpack : t -> int -> int array -> unit
(** [unpack t key dst] writes into [dst] the valuation [pack] maps to
    [key]. *)

(** Hash tables keyed by valuations: the enumerator's state index, the
    FSM checks' tuples and the product machine's visited pairs.  Two
    keys are equal when their lengths and all their entries are, so a
    valuation of the wrong length or with a value outside its domain
    matches no state, and the hash reads every entry (a polymorphic
    [Hashtbl] hashes only the first 10 of an array).  A table holds its
    keys, not copies: a key must not be mutated while it is in one. *)
module Tbl : Hashtbl.S with type key = int array

val state_bits : t -> int
(** Sum of per-variable encoding bits — the paper's "bits per state". *)

val num_states_upper_bound : t -> float
(** Product of state-variable cardinalities (2^bits in the paper's
    framing). *)

val num_choices : t -> int
(** Number of choice combinations permuted per state. *)

val choice_of_index : t -> int -> int array
(** Decode a flat choice index (row-major over [choice_vars]). *)

val index_of_choice : t -> int array -> int

val pp_state : t -> Format.formatter -> int array -> unit
(** [var=value] pairs, comma-separated. *)

val pp_choice : t -> Format.formatter -> int array -> unit

val validate : t -> (unit, string) result
(** Checks domain sizes, reset validity, and that [next] stays in
    range on the reset state for every choice. *)

(** Imperative builder for models made of small interlocking FSMs.

    Declare variables, then provide a [step] function that reads
    current values and assigns next values; unassigned state variables
    hold their current value, which keeps sub-FSM definitions local.
    Every state variable resets to its first value. *)
module Builder : sig
  type b
  type svar
  type cvar

  val create : string -> b
  val state : b -> string -> string array -> svar
  val state_bool : b -> string -> unit -> svar
  val choice : b -> string -> string array -> cvar
  val choice_bool : b -> string -> cvar

  type ctx

  val get : ctx -> svar -> int
  val chosen : ctx -> cvar -> int
  (** Read a choice through the transition's reader: call it only
      where the choice can change the successor (see {!t.next_into}). *)

  val set : ctx -> svar -> int -> unit
  (** Assign the next-cycle value.  Assigning twice in one step is an
      error, mirroring single-driver rules. *)

  val build : b -> step:(ctx -> unit) -> t
end
