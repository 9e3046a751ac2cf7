(** HDL-to-FSM translation (step 1 of the paper's methodology).

    Works from an elaborated design whose control logic has been
    annotated:

    - [// avp state] on a [reg] declaration marks a control state
      variable;
    - [// avp free <net>] (module level) or [// avp free] on a
      declaration marks an abstract nondeterministic input — the
      interface of an abstract block that "tries every combination of
      values";
    - [// avp tie <net> <value>] pins a net to a constant;
    - [// avp clock <net>] and [// avp reset <net>] name the clock and
      the active-high reset.

    The translator computes the cone of influence of the state
    variables and checks that it is closed: every sequential register
    in the cone is annotated as state, every inferred latch is
    annotated as state, and every free-running input is declared free
    or tied.  The resulting {!Model.t} steps the design's own
    simulator, so the state graph "accurately predicts all behaviors
    of the design since it is derived directly from the HDL model".

    Its [next_into] evaluates a state's choices in blocks of 62 on the
    bit-sliced kernel ({!Avp_hdl.Sliced}), created on the first call:
    lane [l] of block [b] takes choice [62b + l] (the last block
    repeats the last choice in its spare lanes), one kernel step
    computes the whole block, and the latest (copy of the state, block)
    answers the block's other choices.  The scalar step, one
    {!Avp_hdl.Sim} step per transition, stays the fallback and the
    oracle in four cases:

    - a design {!Avp_hdl.Sliced.create} rejects: every choice;
    - a lane whose state net comes out undefined: that choice, so the
      [Unsupported] message is the scalar step's;
    - a block whose kernel step raises (a combinational loop that does
      not settle): the kernel is re-initialised and every choice of
      the block re-runs, so the exception is the scalar step's;
    - [next], one transition at a time (a block costs two to three
      scalar steps on pp).  Walks of an enumerated graph do not call
      it: every state of a translated model keeps a successor row
      ([Avp_enum.State_graph.successor]).

    Both steps poke a latch's stored value with the other state nets
    and then re-run the latch's writer, so while the latch is
    transparent its value follows its inputs, whatever the previous
    call poked. *)

type binding = { var : Model.var; net : Avp_hdl.Elab.enet }

type result = {
  model : Model.t;
  state_bindings : binding array;   (** model state var order *)
  choice_bindings : binding array;  (** model choice var order *)
  elab : Avp_hdl.Elab.t;
  clock : string;
  reset : string;
  latches : Latch.latch list;       (** latches folded into the state *)
}

exception Unsupported of string

val translate :
  ?clock:string ->
  ?reset:string ->
  ?reset_cycles:int ->
  Avp_hdl.Elab.t ->
  result
(** @raise Unsupported when annotations are missing or the cone is not
    closed; the message lists the offending nets. *)

val value_of_bv : Avp_logic.Bv.t -> int
(** Encode a defined vector as a domain value.
    @raise Unsupported on undefined bits. *)

