type t = L0 | L1 | X | Z

let equal a b =
  match a, b with
  | L0, L0 | L1, L1 | X, X | Z, Z -> true
  | (L0 | L1 | X | Z), _ -> false

let to_char = function L0 -> '0' | L1 -> '1' | X -> 'x' | Z -> 'z'
let pp ppf b = Format.pp_print_char ppf (to_char b)

let of_char = function
  | '0' -> L0
  | '1' -> L1
  | 'x' | 'X' -> X
  | 'z' | 'Z' -> Z
  | c -> invalid_arg (Printf.sprintf "Bit.of_char: %C" c)

let of_bool b = if b then L1 else L0
let to_bool = function L0 -> Some false | L1 -> Some true | X | Z -> None
let is_defined = function L0 | L1 -> true | X | Z -> false

(* Gate inputs treat Z as X, per IEEE-1364 truth tables. *)
let logand a b =
  match a, b with
  | L0, _ | _, L0 -> L0
  | L1, L1 -> L1
  | (L1 | X | Z), (L1 | X | Z) -> X

let logor a b =
  match a, b with
  | L1, _ | _, L1 -> L1
  | L0, L0 -> L0
  | (L0 | X | Z), (L0 | X | Z) -> X

let logxor a b =
  match a, b with
  | L0, L0 | L1, L1 -> L0
  | L0, L1 | L1, L0 -> L1
  | (X | Z), _ | _, (X | Z) -> X

let lognot = function L0 -> L1 | L1 -> L0 | X | Z -> X

let mux ~sel a b =
  match sel with
  | L1 -> a
  | L0 -> b
  | X | Z -> if equal a b && is_defined a then a else X

let resolve a b =
  match a, b with
  | Z, v | v, Z -> v
  | L0, L0 -> L0
  | L1, L1 -> L1
  | (L0 | L1 | X), (L0 | L1 | X) -> X
