(** Elaboration: flattens a parsed design into a net list.

    Instances are expanded recursively; nets get full hierarchical
    names ([u0.state]).  A port connected to a plain full-width
    identifier is aliased to the parent net; other connections become
    continuous assignments in the appropriate direction.  Declared bit
    ranges are normalised so that bit 0 is the declared LSB. *)

type uid = int

type enet = {
  id : uid;
  name : string;  (** full hierarchical name *)
  width : int;
  kind : Ast.net_kind;
  attrs : string list;  (** [avp] attributes from the declaration *)
  loc : Ast.loc;  (** declaration site in the source text *)
}

type eexpr =
  | Const of Avp_logic.Bv.t
  | Net of uid
  | Index of uid * eexpr
  | Range of uid * int * int  (** bit offsets after LSB normalisation *)
  | Unop of Ast.unop * eexpr
  | Binop of Ast.binop * eexpr * eexpr
  | Ternary of eexpr * eexpr * eexpr
  | Concat of eexpr list  (** head is MSB *)
  | Repeat of int * eexpr

type elv =
  | Lnet of uid
  | Lindex of uid * eexpr
  | Lrange of uid * int * int
  | Lconcat of elv list

type estmt =
  | Block of estmt list
  | Blocking of elv * eexpr
  | Nonblocking of elv * eexpr
  | If of eexpr * estmt * estmt option
  | Case of eexpr * (eexpr list * estmt) list * estmt option
  | Nop

type process =
  | Assign of elv * eexpr  (** continuous assignment *)
  | Comb of estmt  (** combinational always block *)
  | Seq of (Ast.edge * uid) list * estmt  (** edge-triggered block *)

type t = {
  nets : enet array;
  processes : process array;
  control : bool array;
      (** parallel to [processes]: whether each process appeared inside
          a [control_begin]/[control_end] directive pair *)
  by_name : (string, uid) Hashtbl.t;
  top : string;
  directives : string list;  (** standalone module-level avp directives *)
  top_inputs : bool array;
      (** net id -> the net is a top-level input or inout port *)
  process_locs : Ast.loc array;
      (** parallel to [processes]: source position of the item each
          process was elaborated from (synthetic port-connection
          assignments carry the instance's position) *)
  write_sites : (uid * bool * Ast.loc) list array;
      (** parallel to [processes]: every static assignment site as
          (written net, nonblocking?, assignment position), in source
          order — the per-statement spans [resolve_stmt] drops, kept
          for diagnostics such as the scheduling-race pass *)
}

exception Error of string

val elaborate : ?top:string -> Ast.design -> t
(** Flattens starting at [top] (default: the last module in the
    design).  @raise Error on unresolved modules, width mismatches in
    aliased port connections, or unsupported constructs. *)

val net : t -> string -> enet
(** Look up a net by full hierarchical name.  @raise Not_found. *)

val net_id : t -> string -> uid

(** The design's [// avp] annotations, the one reader of their grammar.
    Module-level directives: [clock NET], [reset NET], [free NET] and
    [tie NET VALUE]; a child instance's arrive prefixed with its
    instance path ([u0: free x]) and name [u0.x].  A free or tied net
    is given by its own name, which for a child's port connected to a
    parent net is the parent net's.  Declaration attributes: [state],
    [free] and [tie VALUE].  Anything else is ignored. *)
type annotations = {
  clock : string option;  (** the first [clock] directive's net *)
  reset : string option;  (** the first [reset] directive's net *)
  frees : string list;  (** nets declared free, by their own names *)
  ties : (string * (int, string) result) list;
      (** each tie in directive order, then declaration order: the net
          and its value, or the complaint about a value that is not an
          integer *)
  states : bool array;  (** net id -> declared [state] *)
}

val annotations : t -> annotations
val expr_nets : eexpr -> uid list
val lv_nets : elv -> uid list
val stmt_reads : estmt -> uid list
val stmt_writes : estmt -> uid list
val pp_summary : Format.formatter -> t -> unit
