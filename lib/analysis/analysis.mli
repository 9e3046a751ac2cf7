(** Front end of the static-analysis subsystem: runs every registered
    pass, then filters and orders findings deterministically.  The
    exit-code contract here is shared by `avp lint` and the CI gate. *)

val rules : (string * Finding.severity * string) list
(** (rule name, default severity, one-line description) — the single
    source of truth for `avp lint`'s manpage and the README table. *)

val is_rule : string -> bool

val rules_markdown : unit -> string
(** The rules table as GitHub markdown, generated from {!rules} — the
    README embeds it verbatim and a test asserts it never drifts. *)

val filter :
  ?only:string list -> ?ignore:string list -> Finding.t list ->
  Finding.t list
(** [only] wins over [ignore] when both are given; empty [only] means
    "all rules". *)

val run :
  ?only:string list -> ?ignore:string list -> ?absint:bool ->
  Avp_hdl.Elab.t -> Finding.t list
(** All netlist passes (comb-loop, latch, x-source, width, races,
    structural), sorted with {!Finding.sort}.  [absint] (default
    false) additionally runs the {!Absint} fixpoint and appends its
    invariant-backed findings (constant-net, unreachable-branch,
    redundant-reset). *)

val run_model :
  ?only:string list ->
  ?ignore:string list ->
  ?max_evals:int ->
  Avp_fsm.Model.t ->
  Finding.t list
(** The abstract FSM checks of {!Fsm_check}, sorted and filtered. *)

val errors : Finding.t list -> Finding.t list

val exit_code : strict:bool -> Finding.t list -> int
(** 0 clean, 1 warnings remain under [strict], 2 errors. *)
