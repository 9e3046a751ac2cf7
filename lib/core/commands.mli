(** The [avp] commands as library functions: each takes the command's
    flags under the same names ([ignored] is lint's [--ignore]; [profile]
    ["-"] prints the profile to stderr) and never raises.  Bad input (a
    parse or elaboration error, a loop that never settles, an unreadable
    file) ends a command with its message on stderr and exit code 2, an
    uncaught exception (a bug) with exit code 125, each after whatever
    the command printed before. *)

type stream = Stdout | Stderr

type 'a t = {
  value : 'a option;
      (** what the command computed; [None] when it stopped early *)
  text : (stream * string) list;  (** everything it prints, in order *)
  code : int;  (** its exit code *)
}

val print : 'a t -> int
(** Write the text to stdout and stderr in order; return the exit
    code. *)

(** {2 Models, tours and vectors} *)

val translate :
  ?top:string -> murphi:bool -> string -> Avp_fsm.Translate.result t

val enumerate :
  ?top:string -> all_conditions:bool -> ?dot:string -> ?trace:string ->
  ?metrics:string -> ?profile:string -> string -> Avp_enum.State_graph.t t

val tour :
  ?top:string -> all_conditions:bool -> ?limit:int -> ?trace:string ->
  ?metrics:string -> string ->
  (Avp_enum.State_graph.t * Avp_tour.Tour_gen.t) t

val vectors :
  ?top:string -> ?limit:int -> out:string -> string ->
  Avp_vectors.Vector.t array t

val replay :
  ?top:string -> ?limit:int -> ?domains:int -> ?trace:string ->
  ?metrics:string -> ?profile:string -> ?vcd:string -> ?report:string ->
  string -> Flow.report t
(** {!Flow.run}; exit code 1 on a mismatch. *)

(** {2 Mutation and fuzzing} *)

val mutate :
  ?top:string -> ops:string list -> seed:int -> ?budget:int -> json:bool ->
  ?domains:int -> ?limit:int -> ?gate:float -> engine:[ `Scalar | `Sliced ] ->
  ?trace:string -> ?metrics:string -> ?profile:string -> ?report:string ->
  string -> Avp_mutate.Campaign.report t
(** [domains] defaults to {!Avp_enum.Pool.default_domains}, as in
    {!fuzz}.  Exit code 1 when [gate] fails, 2 on an unknown operator
    family. *)

val fuzz :
  ?top:string -> seed:int -> budget:int -> ?batch:int ->
  engine:[ `Scalar | `Sliced ] -> ?domains:int -> ?corpus:string ->
  ?replay:string -> ?mutants:int -> json:bool -> gate:bool -> ?trace:string ->
  ?metrics:string -> ?profile:string -> ?report:string -> string ->
  (Avp_fuzz.Loop.result * Avp_fuzz.Compare.t option) t
(** The comparison is [None] under [replay].  Exit code 1 when [gate]
    fails, 2 when it cannot be checked or the corpus does not load. *)

val validate :
  ?file:string -> ?bug:int -> ?limit:int -> ?domains:int -> seed:int ->
  ?fuzz:int -> ?trace:string -> ?metrics:string -> ?vcd:string ->
  ?report:string -> unit -> Avp_harness.Campaign.bug_row list t
(** The Table 2.1 campaign; [file] may only be ["pp"]. *)

(** {2 Static analysis} *)

val lint :
  ?top:string -> json:bool -> only:string list -> ignored:string list ->
  strict:bool -> fsm:bool -> absint:bool -> rules_md:bool -> string ->
  Avp_analysis.Finding.t list t

val invariants :
  ?top:string -> json:bool -> string -> Avp_analysis.Absint.invariants t

(** {2 Trace analysis and the errata table} *)

val profile :
  ?folded:string -> ?flame:string -> ?json:string -> normalize:bool ->
  string -> Avp_obs.Prof.t t

val errata : unit -> Avp_errata.Errata.row list t
