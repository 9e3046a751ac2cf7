(** The paper's methodology as one pipeline.

    [run] performs all four steps on an annotated design: translate
    the control logic to an FSM model (Section 3.1), enumerate its
    state graph from reset (3.2), generate transition tours and their
    force/release vectors (3.3), and replay the vectors against the
    design checking every predicted transition (the step-4 comparison,
    with the design as its own executable specification).  For
    validating a {e modified} implementation against the golden
    model's vectors, pass it as [~dut]. *)

type report = {
  translation : Avp_fsm.Translate.result;
  graph : Avp_enum.State_graph.t;
  tours : Avp_tour.Tour_gen.t;
  vectors : Avp_vectors.Vector.t array;  (** one per tour trace *)
  replay : (Avp_vectors.Replay.stats, Avp_vectors.Replay.mismatch) result;
  absorbing : int list;
      (** deadlocked states — toured but never flagged by replay;
          see the liveness caveat in DESIGN.md *)
}

val run :
  ?clock:string ->
  ?reset:string ->
  ?all_conditions:bool ->
  ?instr_limit:int ->
  ?progress:(int -> Avp_obs.Progress.t) ->
  ?dut:Avp_hdl.Elab.t ->
  Avp_hdl.Elab.t ->
  report
(** [progress] is called with the number of traces once the tours
    exist; the replay ticks the meter it returns once per trace and
    finishes it.
    @raise Avp_fsm.Translate.Unsupported on missing annotations.
    @raise Avp_hdl.Sim.Comb_loop on unsettleable logic. *)

val run_source :
  ?top:string ->
  ?clock:string ->
  ?reset:string ->
  ?all_conditions:bool ->
  ?instr_limit:int ->
  string ->
  report
(** Convenience: parse and elaborate Verilog text first.
    @raise Avp_hdl.Parser.Error / Avp_hdl.Lexer.Error on bad input. *)

val passed : report -> bool
(** Tours cover every arc and the replay matched every prediction. *)

val pp_summary : Format.formatter -> report -> unit
