(** Four-valued bit vectors with Verilog-style operator semantics.

    A vector has a fixed positive width; index 0 is the least
    significant bit.  Arithmetic and relational operators return
    all-[X] / [X] whenever an input bit is undefined, matching the
    pessimistic semantics of IEEE-1364 expressions.  Vectors are
    immutable. *)

type t

val width : t -> int

val create : int -> Bit.t -> t
(** [create w b] is a [w]-wide vector with every bit [b]. *)

val zero : int -> t
val ones : int -> t
val all_x : int -> t
val all_z : int -> t

val of_int : width:int -> int -> t
(** Truncates to [width] low bits.  @raise Invalid_argument on
    non-positive width or negative value. *)

val to_int : t -> int option
(** [None] if any bit is undefined or the width exceeds 62 bits. *)

val to_int_exn : t -> int

val of_bits : Bit.t list -> t
(** Head of the list is the {e most} significant bit, as written. *)

val of_string : string -> t
(** Parses ["10xz"] (MSB first).  Underscores are ignored. *)

val to_string : t -> string
(** MSB first, e.g. ["10xz"]. *)

val get : t -> int -> Bit.t
(** @raise Invalid_argument when out of range. *)

val set : t -> int -> Bit.t -> t
(** Functional update. *)

val equal : t -> t -> bool
(** Case equality ([===]): exact per-bit match including X and Z. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val is_defined : t -> bool

val resize : t -> int -> t
(** Zero-extends or truncates. *)

val concat : t -> t -> t
(** [concat hi lo]. *)

val select : t -> hi:int -> lo:int -> t

val insert : t -> lo:int -> t -> t
(** [insert t ~lo src] replaces bits [lo .. lo + width src - 1] of [t]
    with [src].  @raise Invalid_argument if the range does not fit. *)

val repeat : int -> t -> t

(* Bitwise (elementwise after zero-extension to max width). *)
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val resolve : t -> t -> t

(* Reductions. *)
val reduce_and : t -> Bit.t
val reduce_or : t -> Bit.t
val reduce_xor : t -> Bit.t

val to_bool : t -> bool option
(** Truth value of the vector as a condition: [Some true] if any bit
    is 1, [Some false] if all bits are 0, [None] when undefined bits
    prevent deciding. *)

(* Arithmetic: result width is the max operand width; all-X on any
   undefined input bit. *)
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(* Relational: scalar results, [X] on undefined inputs. *)
val eq : t -> t -> Bit.t
val neq : t -> t -> Bit.t
val lt : t -> t -> Bit.t
val le : t -> t -> Bit.t
val gt : t -> t -> Bit.t
val ge : t -> t -> Bit.t

val case_eq : t -> t -> Bit.t
(** Verilog [===]: always defined. *)

(* Shifts by a defined amount; all-X when the amount is undefined. *)
val shift_left : t -> t -> t
val shift_right : t -> t -> t

val mux : sel:Bit.t -> t -> t -> t

(* Two-plane packed interop (the compiled simulator's fast path).
   Vectors no wider than [packed_width_limit] are stored as a value
   plane and an unknown plane in native ints: bit i is defined iff
   bit i of the unknown plane is 0, in which case the value plane
   holds its value; otherwise value=1 is X and value=0 is Z. *)

val packed_width_limit : int
(** Widths up to this (62) use the packed two-plane representation. *)

val planes : t -> (int * int) option
(** [(value, unknown)] planes of a packed vector, [None] if wide. *)

val value_plane : t -> int
val unknown_plane : t -> int
(** The planes of a packed vector one at a time, without allocating.
    @raise Invalid_argument if the vector is wide. *)

val of_planes : width:int -> int -> int -> t
(** [of_planes ~width v u] builds a packed vector from planes (masked
    to [width]).  @raise Invalid_argument when [width] is outside the
    packed range. *)
