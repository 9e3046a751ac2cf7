(** Vector replay on the lanes of one bit-sliced kernel, in slots.

    The kernel's lanes are cut into slots of [width] consecutive lanes:
    slot [s] holds lanes [s * width] to [s * width + width - 1], and
    lanes past the last whole slot stay frozen.  A slot replays one
    trace at a time, as {!Condition_map.apply} does on a scalar
    simulator: its lanes return to power-on
    ({!Avp_hdl.Sliced.reinit} with the slot's mask), take a reset
    step, then take the trace's cycles, every lane of the slot under
    the trace's stimulus.  Each slot's step shares the clock edge with
    the other slots' steps, whatever point of its own trace each is
    at.  As soon as a slot's trace ends, or every lane in it is frozen
    ({!Avp_hdl.Sliced.freeze} — a caller stops a lane by freezing it),
    the slot takes the next unstarted trace in index order, so a set
    of short traces keeps every slot busy.

    Each step resolves every slot's stimulus once and writes it per
    net across all lanes in one transposed pass
    ({!Avp_hdl.Sliced.force_slots}).  A lane of a slot ends every step
    bit-identical to a scalar simulator replaying the same trace; the
    reference interpreter stays the oracle.  Traces finish out of order, so a
    caller combines what it observes by trace index. *)

val run :
  ?start:(slot:int -> int -> int) ->
  on_reset:(slot:int -> int -> unit) ->
  on_cycle:(slot:int -> int -> int -> unit) ->
  Avp_hdl.Sliced.t ->
  Avp_fsm.Translate.result ->
  width:int ->
  Vector.t array ->
  unit
(** [run sim tr ~width vectors] replays every trace of [vectors] on
    [sim], a kernel of [tr]'s elaborated design (or of mutant schemata
    over it) with at least [width] lanes.

    - [start ~slot t] runs when [slot] is about to take trace [t] and
      returns the lanes that replay it (default: all); the slot's other
      lanes stay frozen for the trace, and [0] skips the trace — no
      slot replays it.
    - [on_reset ~slot t] runs at trace [t]'s reset release, the point
      {!Condition_map.apply}'s [on_reset] observes.
    - [on_cycle ~slot t i] runs after cycle [i] of trace [t].

    Callbacks of one step run in slot order.  An exception from the
    kernel (a combinational loop that does not settle) leaves [sim] in
    an unspecified state; a full {!Avp_hdl.Sliced.reinit} recovers
    it. *)
