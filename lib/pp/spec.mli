(** Instruction-level simulator — the executable specification the
    RTL implementation is compared against (step 4 of the paper's
    methodology).  Executes one instruction at a time with no timing;
    stalls do not exist at this level.  Architectural effects are
    logged so that the harness can diff the two models "to find
    differences in behavior". *)

type effect_ =
  | Reg_write of Isa.reg * int
  | Mem_write of int * int  (** word address, value *)
  | Outbox_send of int

val pp_effect : Format.formatter -> effect_ -> unit
val effect_equal : effect_ -> effect_ -> bool

type t

val create :
  ?mem_init:(int * int) list ->
  program:Isa.t array ->
  inbox:int list ->
  unit ->
  t

val run : t -> unit
(** Steps until the program halts, at most 1,000,000 steps. *)

val halted : t -> bool
val reg : t -> Isa.reg -> int
val mem_word : t -> int -> int
val effects : t -> effect_ list
(** In execution order. *)

val outbox : t -> int list
(** Values sent, in order. *)

val inbox_underflow : t -> bool
(** A [switch] executed with an empty Inbox (the harness should
    provision enough task words; the value read is 0). *)
