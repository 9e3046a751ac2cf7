(** Abstract interpretation: proven per-net invariants.

    A fixpoint over the sequential step function on a product domain
    per net — known bits of both packed planes (the 4-state
    constant/X plane as the degenerate fully-known case) plus an
    integer value-plane interval — with comb settling ordered by the
    {!Dataflow} SCC condensation and interval widening on the
    sequential iteration.

    Two environments come out:

    - {b all}: holds at every program point of every execution whose
      stimulus only pokes or forces unconstrained nets (power-on
      values, settle transients and seq-blocking overlays included).
    - {b run}: holds at every settled observation point of the
      translate/replay protocol (reset held, released, only the clock
      stepped) — what the state enumerator and the mutation campaign
      observe.

    Everything here is deterministic: no hashing of names, no
    wall-clock. *)

open Avp_logic
open Avp_hdl

type av = {
  w : int;  (** net width *)
  kv : int;  (** mask of value-plane bits with a proven value *)
  v : int;  (** their values; [v land kv = v] *)
  ku : int;  (** mask of unknown-plane bits with a proven value *)
  u : int;  (** their values; [u land ku = u] *)
  lo : int;  (** value-plane integer bounds (trivial when wide) *)
  hi : int;
}
(** Nets wider than {!Bv.packed_width_limit} are always top. *)

val of_bv : Bv.t -> av

val to_bv : av -> Bv.t option
(** The proven 4-state constant, when every bit of both planes is
    known. *)

val is_const : av -> bool

val defined : av -> bool
(** Every bit proven to carry a 0/1 (no X, no Z). *)

val join : av -> av -> av

type invariants = {
  design : Elab.t;
  all : av array;  (** net id -> every-program-point invariant
                       (power-on planes and settle transients joined
                       in) *)
  steady : av array;
      (** net id -> invariant over every value an expression can read
          (registers still include power-on X, but memoryless comb
          nets shed their power-on Z) — where the proven constants
          come from.  Equals [all] unless [latch_free]. *)
  run : av array;  (** net id -> post-reset observation invariant *)
  tops : bool array;  (** nets left unconstrained (inputs, frees, ties,
                          clock, reset) *)
  clock : int option;
  reset : int option;
  run_distinct : bool;
      (** the protocol analysis ran (clock and reset were found); when
          false [run] is a copy of [all] *)
  latch_free : bool;
      (** no combinational cycles and no incomplete comb assignments:
          every comb net is memoryless, which is what makes the
          [steady] overwrite-settle sound *)
}

val analyze : Elab.t -> invariants
(** Clock, reset, free and tied nets come from the design's annotations
    ({!Elab.annotations}; tie values are not read, so a tied net is
    unconstrained).  Without both a clock and a reset only the [all]
    analysis runs.  The [run] protocol holds the reset for one posedge
    step, as {!Avp_fsm.Translate.translate} does. *)

val divergence :
  nets:string list -> invariants -> invariants -> (string * string) option
(** [divergence ~nets pristine mutant] is [Some (net, why)] when some
    checked net's protocol invariants are disjoint (a bit proven to
    differ, or non-overlapping value ranges): every post-reset
    observation of the two designs differs on it, so any replay tour
    kills the mutant without simulating it. *)

val findings : invariants -> Finding.t list
(** The invariant-backed lint passes, {!Finding.sort}ed:
    [constant-net] (a written net proven constant everywhere),
    [unreachable-branch] (a guard proven one-sided on every post-reset
    cycle) and [redundant-reset] (the reset branch assigns a value the
    register provably holds anyway). *)

val av_str : av -> string
(** Verilog-flavoured rendering, MSB first: [0/1/x/z] for fully known
    bits, [-] for a bit proven defined of unknown value, [?] for an
    unconstrained bit; followed by the value-plane interval when it
    adds information ("4'b??-0 in [0,6]"). *)

val interesting : av -> bool
(** Strictly below top: the analysis proved something. *)

