(** Seeded mutational operators over corpus entries: splice,
    truncate, extend, per-field flip/off-by-one, class re-roll and
    window re-roll.  Every operator preserves well-formedness
    ({!Corpus.well_formed}) by construction, and all randomness flows
    through the caller's [Random.State.t] — a fixed seed fixes the
    whole campaign. *)

type space

val space : ?max_len:int -> Avp_fsm.Model.t -> space
(** [max_len] (default 48) bounds entry length. *)

val random_entry : space -> Random.State.t -> len:int -> Corpus.entry
(** A fresh uniformly-random entry (the initial population). *)

val mutate :
  space -> Random.State.t -> corpus:Corpus.entry array -> Corpus.entry ->
  Corpus.entry
(** One mutation of [e], drawing the operator and its parameters from
    the PRNG; [corpus] supplies splice partners. *)

