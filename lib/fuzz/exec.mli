(** Candidate evaluation for the fuzzing loop: plan a corpus entry as
    a model walk, realize it as force/release vectors, execute it on
    the compiled scalar engine or the bit-sliced batched kernel, and
    check that the design took exactly the planned walk.  The plan is
    the candidate's only record; execution returns no observations. *)

type planned = {
  choices : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;  (** the model walk from reset *)
}

val plan :
  Avp_fsm.Model.t -> Avp_enum.State_graph.t -> Corpus.entry -> planned
(** Walk the model from reset under the entry's choices. *)

val run :
  ?engine:[ `Scalar | `Sliced ] ->
  ?progress:Avp_obs.Progress.t ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  planned array ->
  (unit, int * string) result
(** Execute every candidate on [tr]'s elaborated design and check
    every annotated state net against its plan's predicted valuation,
    at reset release and after every clock edge.  [Error (i, detail)]
    names the lowest-numbered candidate that left its plan, and where:
    the first mismatching net ({!Avp_vectors.Replay.pp_mismatch}, with
    the candidate as the trace), or the message of a state net that
    carried x/z bits.  Both engines report the same candidate and
    detail.

    [engine] (default [`Sliced]):
    - [`Scalar] is one {!Avp_vectors.Replay.check} over the plans as a
      tour set.  It emits the checker's [replay.run] and
      [replay.trace] spans.
    - [`Sliced] packs up to {!Avp_logic.Bv_sliced.lanes_limit} (62)
      candidates word-parallel per kernel, each lane under its own
      stimulus, and emits one [fuzz.exec] span per candidate with
      deterministic args.  A
      design outside the kernel's coverage falls back to [`Scalar].

    [progress] ticks once per candidate. *)
