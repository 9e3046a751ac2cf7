(** Candidate evaluation for the fuzzing loop: plan a corpus entry as
    a model walk, realize it as force/release vectors, execute it on
    the compiled scalar engine or the bit-sliced batched kernel, and
    observe the per-cycle state-id trajectory. *)

type planned = {
  choices : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;  (** the model walk from reset *)
}

val plan :
  Avp_fsm.Model.t -> Avp_enum.State_graph.t -> Corpus.entry -> planned
(** Walk the model from reset under the entry's choices.  The model's
    [next] may drive a shared reference simulator, so planning is
    sequential on the calling domain. *)

val planned_ids : planned -> int array
(** The state ids the plan predicts: index 0 post-reset, index [i+1]
    after cycle [i]. *)

val run :
  ?engine:[ `Scalar | `Sliced ] ->
  ?domains:int ->
  ?progress:Avp_obs.Progress.t ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  planned array ->
  int array array
(** Execute every candidate and return its observed state-id
    trajectory in {!planned_ids} layout ([-1] marks an observation
    that did not project onto the enumerated space — impossible on a
    pristine translated design).

    [engine] (default [`Sliced]) packs up to
    {!Avp_logic.Bv_sliced.lanes_limit} (62) candidates word-parallel
    per kernel, each lane under its own
    stimulus; the scalar engine replays one candidate per simulator
    instance.  [domains] shards candidates (scalar) or whole chunks
    (sliced) over OCaml domains; results are positionally indexed, so
    observations are identical for any engine or domain count.
    Emits one [fuzz.exec] span per candidate with deterministic
    args. *)
