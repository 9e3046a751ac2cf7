(** Transition condition mapping.

    "The correspondence between interface signals in the FSM model and
    actual wires in the simulation is made in the transition condition
    mapping": every choice-variable value on a tour edge becomes the
    force commands that pin the corresponding simulator wire. *)

open Avp_fsm

type t

val of_translation : Translate.result -> t
(** The natural mapping for a model produced by {!Translate}: choice
    variable [v] with value [k] forces the identically-named net to
    the [k]-th value of its domain.  A map memoizes the cycle it
    realizes per flat choice index. *)

val vectors_of_trace : t -> Avp_tour.Tour_gen.trace -> Vector.t
(** One vector per tour edge, from the edge's recorded condition.
    Edges with the same choice index share one physical (immutable)
    cycle. *)

val apply :
  ?on_reset:(unit -> unit) ->
  Vector.t -> Avp_hdl.Sim.t -> clock:string -> reset:string ->
  on_cycle:(int -> unit) -> unit
(** Resets the design, then plays the vectors cycle by cycle,
    invoking [on_cycle] after each clock edge (for checking).
    [on_reset] fires once after the reset cycle, before the first
    vector — the point where the post-reset state is observable. *)
