(** Instruction-level coverage-guided fuzzing for the Protocol
    Processor.

    The net-level loop ({!Loop}) fuzzes abstract choice sequences
    against the translated HDL; this one fuzzes concrete programs —
    plus their Inbox/Outbox back-pressure masks — against the
    pipelined RTL, fed back by the harness's arc coverage signal
    ({!Avp_harness.Coverage.run_delta}).  Candidates start from the
    pure-random baseline's biased class mix and wide address pool;
    mutations re-roll instructions (free or class-preserving), apply
    per-field off-by-one tweaks, splice, truncate, extend, and nudge
    the ready masks.  A candidate is kept iff its run moved the
    state or arc counters; parent selection weights each kept entry
    by 1 + the arcs it gained.

    The kept corpus converts to a {!Avp_harness.Drive.stimulus} list
    — the third vector-generation method of the Table 2.1 harness
    comparison.  Fully deterministic for a fixed seed (the RTL run is
    sequential; one PRNG drives generation). *)

type entry = {
  program : Avp_pp.Isa.t array;  (** no trailing [Halt] *)
  inbox_mask : int;  (** >= 2; Inbox stalls on [c mod inbox_mask = 0] *)
  outbox_mask : int;  (** >= 2; Outbox stalls on [c mod outbox_mask = 1] *)
}

type config = {
  seed : int;
  budget : int;  (** candidate executions *)
  init_len : int;
  max_len : int;
  max_cycles : int;  (** per-run RTL cycle bound *)
}

val default_config : config
(** seed 0, budget 96, init_len 24, max_len 64, max_cycles 4000. *)

type kept = {
  k_entry : entry;
  k_index : int;  (** which executed candidate earned the keep *)
  k_gain : Avp_obs.Coverage.counts;
}

type result = {
  config : config;
  executed : int;
  kept : kept array;
  coverage : Avp_harness.Coverage.t;
  instructions : int;  (** total instructions across executed candidates *)
}

val run :
  ?rtl_config:Avp_pp.Rtl.config ->
  ?progress:Avp_obs.Progress.t ->
  config:config ->
  Avp_pp.Control_model.cfg ->
  Avp_enum.State_graph.t ->
  result
(** Emits one [fuzz.exec] span per candidate; [progress] ticks once
    per candidate. *)

val stimuli : result -> Avp_harness.Drive.stimulus list
(** The kept corpus, realized — feed to
    {!Avp_harness.Campaign.table_2_1}'s [?fuzz]. *)
