(** Latch inference over elaborated combinational processes.

    The paper notes the translator "must analyze for latches and
    convert them to explicit state variables": in the stylized Verilog
    subset, a variable assigned in a combinational [always] block but
    not on every control path implicitly holds its previous value.
    This analysis reports such variables so they can be annotated as
    state (or fixed). *)

type kind =
  | Incomplete_assignment
      (** some path through the process leaves the net unassigned *)
  | Self_dependent
      (** the net's own value feeds its new value within one process *)

type latch = {
  net : Avp_hdl.Elab.enet;
  kind : kind;
  process_index : int;  (** index into [Avp_hdl.Elab.processes] *)
}

val pp_latch : Format.formatter -> latch -> unit

val analyze : Avp_hdl.Elab.t -> latch list
(** All inferred latches in combinational processes, ordered by
    process. *)

module Ids : Set.S with type elt = int

val must_assign_set : Avp_hdl.Elab.estmt -> Ids.t
(** Nets assigned in full on every path through the statement.
    Partial writes (bit/range selects) conservatively do not count:
    they still latch the remaining bits. *)
