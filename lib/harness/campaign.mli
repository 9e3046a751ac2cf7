(** The Table 2.1 experiment: for each injected Protocol Processor
    bug, does each test-generation method expose it within a budget?

    The paper's finding is that the generated vectors caught bugs
    "not (yet) found by other methods": all the vectors found by other
    methods were also found, and the six multiple-event bugs fell only
    to the systematic tours. *)

type method_result = {
  detected : bool;
  runs : int;  (** traces / programs executed until detection (or all) *)
  instructions : int;  (** instructions simulated until detection *)
}

type bug_row = {
  bug : Avp_pp.Bugs.id;
  generated : method_result;
  random : method_result;
  directed : method_result;
  fuzz : method_result option;
      (** coverage-guided fuzz corpus, when one was supplied *)
}

val run_stimulus :
  ?config:Avp_pp.Rtl.config ->
  ?max_cycles:int ->
  Drive.stimulus ->
  Compare.verdict
(** One stimulus through RTL-vs-spec comparison. *)

val table_2_1 :
  ?seed:int ->
  ?max_cycles:int ->
  ?progress:Avp_obs.Progress.t ->
  ?fuzz:Drive.stimulus list ->
  cfg:Avp_pp.Control_model.cfg ->
  graph:Avp_enum.State_graph.t ->
  tours:Avp_tour.Tour_gen.t ->
  unit ->
  bug_row list
(** Generated vectors come from the tours; the random method gets the
    same instruction budget as the generated vectors consumed; the
    directed method runs the fixed hand-written suite.  [?fuzz]
    supplies a fourth stimulus set — a coverage-guided fuzz corpus
    (e.g. [Avp_fuzz.Isa_fuzz.stimuli]) — scored the same way and
    reported per row in [fuzz]. *)

val pp_rows : Format.formatter -> bug_row list -> unit
