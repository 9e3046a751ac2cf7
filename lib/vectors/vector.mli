(** Simulation test vectors (step 3 output).

    A vector is one clock cycle of stimulus: the force/release
    commands that pin the interface signals of the control logic to
    the values chosen by the abstract blocks on the tour edge — "we
    forcibly take control of the signals in the simulator which
    interface to the control logic and make them match the choice of
    the abstract blocks". *)

type action =
  | Force of string * Avp_logic.Bv.t
  | Release of string

type cycle = { actions : action list }
type t = cycle array
(** One trace of vectors, applied from reset. *)

val to_string : t -> string
(** Textual vector-file format: one line per command, [step] lines
    separating cycles. *)

val of_string : string -> t
(** Parses the {!to_string} format.  @raise Failure on bad input. *)
