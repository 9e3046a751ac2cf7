(** Minimal JSON values: enough to emit every telemetry artifact with
    one deterministic printer and to parse back what we emit (trace
    files and the bench records).
    Not a general-purpose JSON library — no streaming, no numbers
    beyond OCaml [int]/[float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-escape the body (no surrounding quotes). *)

val float_string : float -> string
(** Round-trippable float spelling: integral values as ["%.0f"], the
    rest as ["%.17g"]; non-finite values (unrepresentable in JSON)
    collapse to ["0"]. *)

val to_string : t -> string
(** Compact, single-line, field order preserved — byte-deterministic
    for a given value. *)

val to_string_pretty : t -> string
(** Indented rendering (trailing newline) for committed artifacts. *)

val parse : string -> (t, string) result

val member : string -> t -> t option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
