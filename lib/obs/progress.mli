(** Periodic stderr progress lines (count, rate, ETA) for long runs:
    enumeration levels, replay shards, mutation kill campaigns.

    Output is rate-limited to one [\r]-rewritten line and only
    produced when [enabled] (default: stderr is a TTY); a disabled
    instance still counts ticks but never writes, so callers thread
    one value unconditionally.  [tick] is safe from any domain. *)

type t

val stderr_is_tty : unit -> bool

val create :
  ?out:out_channel ->
  ?interval_s:float ->
  ?enabled:bool ->
  ?total:int ->
  label:string ->
  unit ->
  t

val tick : ?n:int -> t -> unit
val count : t -> int

val finish : t -> unit
(** Clears the progress line so subsequent output starts clean. *)
