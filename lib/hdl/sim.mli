(** Cycle-based simulator for elaborated designs.

    Two-phase semantics in the Synchronous-Murphi style the paper
    relies on: combinational logic (continuous assignments and
    always-at-star blocks) settles to a fixpoint, then a clock edge
    executes every matching edge-triggered block against the settled
    pre-edge values and commits nonblocking updates atomically.

    Registers power up as [X]; undriven wires read [Z].  Multiple
    continuous drivers of one net are combined with wire resolution,
    so tri-state buses behave as in the paper's Bug #5.  [force] pins
    a net to a value until [release], exactly like the Verilog
    commands the generated test vectors use. *)

type t

exception Comb_loop of string
(** Raised when combinational settling fails to converge, naming a
    net that keeps changing. *)

val create : Elab.t -> t
(** A fresh simulator at power-on state: registers [X], wires [Z].
    This tree-walking interpreter is the reference the bit-sliced
    kernel ({!Sliced}) is checked against, and the scalar engine of
    every caller that simulates one trace at a time. *)

val design : t -> Elab.t

val time : t -> int
(** Number of clock edges stepped so far. *)

val get : t -> string -> Avp_logic.Bv.t
(** Current value of a net by hierarchical name.  @raise Not_found. *)

val get_id : t -> Elab.uid -> Avp_logic.Bv.t

val set : t -> string -> Avp_logic.Bv.t -> unit
(** Poke a net (typically a top-level input).  The value persists
    until overwritten by a driver or another [set].  Triggers
    combinational settling. *)

val force : t -> string -> Avp_logic.Bv.t -> unit
(** Pin a net, overriding any driver, until {!release}. *)

val release : t -> string -> unit
val forced : t -> string -> bool

val settle : t -> unit
(** Settle combinational logic without a clock edge.
    @raise Comb_loop if no fixpoint is reached. *)

val step : ?edge:Ast.edge -> t -> string -> unit
(** [step t clk] settles, fires every sequential block sensitive to
    the given edge (default [Posedge]) of [clk], commits nonblocking
    updates, advances {!time} and settles again. *)

val eval : t -> Elab.eexpr -> Avp_logic.Bv.t
(** Evaluate an expression against current values. *)

val poke_id : t -> Elab.uid -> Avp_logic.Bv.t -> unit
(** Write a net's value {e without} settling.  Used by batch drivers
    (e.g. the FSM translator) that poke many nets and then {!step};
    the value is resized to the net's width and ignored if the net is
    forced. *)

val rerun_unit : t -> int -> unit
(** [rerun_unit t u] makes evaluation unit [u] ({!Compile.units}: the
    resolution of net [u] below the net count, else a combinational
    block) run at the next settle, as if one of its inputs had changed.
    Poking a net does not re-run the block that writes it, so a caller
    that pokes a latch's stored value re-runs the latch this way. *)

(** {2 Observation}

    A single observer, so waveform dumpers and telemetry see every
    step, force and release.  [on_step] fires after each completed
    clock edge (with the post-edge {!time}); [on_force]/[on_release]
    fire after the pin/unpin takes effect. *)

type observer = {
  on_step : time:int -> unit;
  on_force : string -> Avp_logic.Bv.t -> unit;
  on_release : string -> unit;
}

val set_observer : t -> observer option -> unit
val observer : t -> observer option
