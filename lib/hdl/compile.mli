(** What the simulation engines and abstract interpretation share: the
    evaluation-unit analysis, the operator semantics and the
    combinational-loop exception.

    The reference interpreter ({!Sim}) and the bit-sliced kernel
    ({!Sliced}) settle the same evaluation units, so they agree bit for
    bit.  The interpreter evaluates operators through {!unop_val} and
    {!binop_val}, which abstract interpretation collapses to on fully
    known operands. *)

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
(** The operators' values, as the interpreter computes them (shift
    result width is the left operand's, comparisons yield one bit) —
    the ground truth abstract transfer functions collapse to on fully
    known operands. *)
