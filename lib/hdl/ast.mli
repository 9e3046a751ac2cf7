(** Abstract syntax for the synthesizable Verilog subset.

    The subset covers what the paper's translator needs: module
    hierarchy, wire/reg declarations, continuous assignments,
    combinational and edge-triggered [always] blocks with blocking and
    nonblocking assignment, [if]/[case], and the usual expression
    operators including concatenation, replication and four-valued
    literals.  Annotation directives (comments beginning with [avp])
    are preserved as attributes on declarations and as standalone
    items. *)

type loc = { line : int; col : int }

val pp_loc : Format.formatter -> loc -> unit
val no_loc : loc

type unop =
  | Not            (** [!] logical negation *)
  | Bnot           (** [~] bitwise complement *)
  | Uand           (** [&] reduction and *)
  | Uor            (** [|] reduction or *)
  | Uxor           (** [^] reduction xor *)
  | Neg            (** [-] two's-complement negation *)

type binop =
  | Add | Sub | Mul
  | Band | Bor | Bxor
  | Land | Lor
  | Eq | Neq | Ceq | Cneq
  | Lt | Le | Gt | Ge
  | Shl | Shr

type expr =
  | Literal of Avp_logic.Bv.t
  | Ident of string
  | Index of string * expr                 (** [a[i]] *)
  | Range of string * int * int            (** [a[hi:lo]] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr
  | Concat of expr list                    (** [{a, b, c}], head is MSB *)
  | Repeat of int * expr                   (** [{n{e}}] *)

type lvalue =
  | Lident of string
  | Lindex of string * expr
  | Lrange of string * int * int
  | Lconcat of lvalue list

type stmt =
  | Block of stmt list                     (** [begin .. end] *)
  | Blocking of lvalue * expr * loc        (** [l = e;] *)
  | Nonblocking of lvalue * expr * loc     (** [l <= e;] *)
  | If of expr * stmt * stmt option
  | Case of expr * (expr list * stmt) list * stmt option
                                           (** items, optional default *)
  | Nop

type edge = Posedge | Negedge

type sensitivity =
  | Comb   (** always at-star, or an explicit level-sensitive list *)
  | Edges of (edge * string) list  (** posedge/negedge sensitivity list *)

type net_kind = Wire | Reg

type range = { msb : int; lsb : int }
(** Declared as [ [msb:lsb] ]; a missing range means a scalar. *)

val range_width : range option -> int

type direction = Input | Output | Inout

type decl = {
  d_kind : net_kind;
  d_range : range option;
  d_names : string list;
  d_attrs : string list;  (** [avp] directive payloads attached to the line *)
  d_loc : loc;
}

type item =
  | Port_decl of direction * range option * string list * loc
  | Net_decl of decl
  | Assign of lvalue * expr * loc
  | Always of sensitivity * stmt * loc
  | Instance of {
      i_module : string;
      i_name : string;
      i_conns : (string option * expr) list;
          (** [Some p] for named [.p(e)], [None] positional *)
      i_loc : loc;
    }
  | Directive of string * loc              (** standalone [// avp ...] *)
  | Initial of stmt * loc
      (** accepted and ignored by synthesis-oriented passes *)

type module_decl = {
  m_name : string;
  m_ports : string list;
  m_items : item list;
  m_loc : loc;
}

type design = module_decl list

val unop_str : unop -> string
val binop_str : binop -> string

val pp_expr : Format.formatter -> expr -> unit
val pp_lvalue : Format.formatter -> lvalue -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_design : Format.formatter -> design -> unit

val find_module : design -> string -> module_decl option

val equal_design : design -> design -> bool
(** Structural equality, including source positions.  [Bv.t] values
    are in canonical form, so per-bit (case) equality coincides with
    the structural one. *)

val stmt_writes : stmt -> string list
(** Base names a statement may write, without duplicates. *)
