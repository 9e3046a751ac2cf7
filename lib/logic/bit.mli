(** Four-valued scalar logic in the IEEE-1364 style.

    A bit is [L0] (strong zero), [L1] (strong one), [X] (unknown) or
    [Z] (high impedance).  Gate-level operators treat [Z] inputs as
    [X], matching Verilog semantics; the separate {!resolve} function
    implements wire resolution where [Z] is the identity. *)

type t = L0 | L1 | X | Z

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_char : t -> char

val of_char : char -> t
(** Accepts ['0' '1' 'x' 'X' 'z' 'Z'].  @raise Invalid_argument otherwise. *)

val of_bool : bool -> t

val to_bool : t -> bool option
(** [Some] for the two defined values, [None] for [X] and [Z]. *)

val is_defined : t -> bool

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val mux : sel:t -> t -> t -> t
(** [mux ~sel a b] is [a] when [sel] is 1, [b] when [sel] is 0.  An
    undefined select returns [X] unless both branches agree. *)

val resolve : t -> t -> t
(** Wire resolution of two drivers: [Z] loses to any other value;
    conflicting strong values resolve to [X]. *)
