(** Compiled-code simulation backend.

    Elaborated designs whose nets all fit the packed two-plane
    bitvector representation (width <= {!Avp_logic.Bv.packed_width_limit})
    are flattened into per-unit bytecode programs executed by a
    scratch-buffer stack machine: no [Bv.t] is allocated on the hot
    path, expression results live in two native-int planes on a
    preallocated stack.  [create] returns [None] when the design uses
    a construct the compiler does not cover (wide nets, ternaries with
    unequal arm widths); callers fall back to the tree-walking
    interpreter in {!Sim}, which doubles as the differential oracle. *)

open Avp_logic

exception Comb_loop of string
(** Same meaning as [Sim.Comb_loop]; [Sim] re-exports this one. *)

(** Static evaluation-unit analysis shared by both engines: units are
    resolution of a driven net (unit id = net id) or a combinational
    block (unit id = net count + block index).  [readers.(net)] lists
    the units to re-run when [net] changes, in the same order the
    interpreter historically used. *)
type units = {
  drivers : (Elab.elv * Elab.eexpr) list array;
  comb : Elab.estmt array;
  seq : ((Ast.edge * Elab.uid) list * Elab.estmt) array;
  readers : int array array;
  unit_count : int;
}

val units : Elab.t -> units

val unop_val : Ast.unop -> Bv.t -> Bv.t

val binop_val : Ast.binop -> Bv.t -> Bv.t -> Bv.t
(** Constant evaluation with the engines' semantics (shift result
    width is the left operand's, comparisons yield one bit) — the
    ground truth abstract transfer functions collapse to on fully
    known operands. *)

type t

type prog
(** An immutable compiled program: the per-unit bytecode, scratch
    sizes and static analysis, with no runtime state.  Assembling it
    is the expensive half of {!create}; {!instantiate} is cheap, so
    callers that simulate the same design many times (one simulator
    per replay trace, hundreds of traces) compile once and
    instantiate per run. *)

val compile : ?u:units -> Elab.t -> prog option
(** [None] when the design cannot be compiled (fall back to the
    interpreter).  Pass [?u] to reuse an existing analysis. *)

val instantiate : prog -> t
(** A fresh simulator (nets at their reset-free initial X/Z values)
    running the given program.  Instances share only immutable
    data. *)

val create : ?u:units -> Elab.t -> t option
(** [compile] followed by {!instantiate}. *)

val design : t -> Elab.t
val time : t -> int
val get_id : t -> Elab.uid -> Bv.t
val poke_id : t -> Elab.uid -> Bv.t -> unit
(** Write without settling; resized to the net's width, ignored if
    the net is forced. *)

val set_id : t -> Elab.uid -> Bv.t -> unit
(** [poke_id] followed by {!settle}. *)

val force_id : t -> Elab.uid -> Bv.t -> unit
val release_id : t -> Elab.uid -> unit
val forced_id : t -> Elab.uid -> bool

val settle : t -> unit
(** @raise Comb_loop when no fixpoint is reached. *)

val step : t -> edge:Ast.edge -> Elab.uid -> unit
(** Settle, fire sequential blocks on the edge of the given clock
    net, commit nonblocking updates, advance time, settle again. *)
