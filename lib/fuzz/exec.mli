(** Candidate evaluation for the fuzzing loop: plan a corpus entry as
    a model walk, realize it as force/release vectors, execute it on
    the reference interpreter or the bit-sliced batched kernel, and
    check that the design took exactly the planned walk.  The plan is
    the candidate's only record; execution returns no observations. *)

type planned = {
  choices : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;  (** the model walk from reset *)
}

val plan : Avp_enum.State_graph.t -> Corpus.entry -> planned
(** Walk the graph's model from reset under the entry's choices
    ({!Avp_tour.Tour_gen.walk}). *)

val run :
  ?engine:[ `Scalar | `Sliced ] ->
  ?progress:Avp_obs.Progress.t ->
  Avp_fsm.Translate.result ->
  map:Avp_vectors.Condition_map.t ->
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
    detail.  [map] is [tr]'s condition map
    ({!Avp_vectors.Condition_map.of_translation}), which realizes the
    plans as vectors; a caller running many rounds builds it once.

    [engine] (default [`Sliced]):
    - [`Scalar] is one {!Avp_vectors.Replay.check} over the plans as a
      tour set.  It emits the checker's [replay.run] and
      [replay.trace] spans.
    - [`Sliced] is {!Avp_vectors.Replay.check_lanes}: the candidates
      replay as one-lane slots of one kernel of up to
      {!Avp_logic.Bv_sliced.lanes_limit} (62) lanes, each lane under
      its own stimulus; a lane that leaves its plan stops, and its slot
      takes the next candidate.  It emits one [fuzz.exec] span per
      candidate with deterministic args.  A design outside the
      kernel's coverage, or a kernel step that raises, falls back to
      [`Scalar].

    [progress] ticks once per candidate. *)
