(** Structured tracing and metrics for the validation pipeline.

    A single global tracer sits behind an [option ref]: when no tracer
    is installed every instrumentation site is one load plus a branch,
    so enumeration and simulation keep their benchmarked
    throughput.  With a tracer installed, spans, instants and counters
    accumulate in its buffer, and serialization sorts the events under
    a total order so output is reproducible. *)

module Clock : sig
  val now_s : unit -> float
  (** The one clock every measurement in the repo reads: bench
      snapshots, trace spans and progress rates all derive from it. *)
end

module Timer : sig
  type t

  val start : unit -> t
  val elapsed_s : t -> float
end

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ph = Span | Instant

type event = {
  name : string;
  cat : string;
  ph : ph;
  ts_ns : int;  (** nanoseconds since the tracer's epoch *)
  dur_ns : int;
  depth : int;  (** span-nesting depth *)
  o : int;  (** tick at open... *)
  c : int;  (** ...and close; [o = c] for instants and {!complete} *)
  args : (string * arg) list;
}

type t

val create : ?gc:bool -> unit -> t
(** [~gc:true] additionally samples the collector: bracketed spans
    record an [alloc_w] allocated-words arg ([Gc.quick_stat], counter
    reads only) and {!sample_gc} snapshots collection counts.  Off by
    default — allocation varies from run to run, so traces meant to
    normalize identically must not carry it. *)

(** {2 The global tracer} *)

val current : unit -> t option
val enabled : unit -> bool

val with_tracer : t -> (unit -> 'a) -> 'a
(** Installs [t] for the duration of the callback (restoring the
    previous tracer after), so tests can trace scoped sections. *)

(** {2 Emission} — all no-ops (one load) when disabled. *)

val span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Bracketed hierarchical span: times the callback, releases the
    nesting level even on exceptions. *)

val complete : ?cat:string -> ?args:(string * arg) list -> dur_s:float -> string -> unit
(** A span recorded retrospectively from an already-measured duration
    ending now — for loops that time themselves (BFS levels,
    per-mutant classification). *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
val incr : ?by:int -> string -> unit

val sample_gc : unit -> unit
(** Snapshot the collector's counters as [gc.*] Obs counters (deltas
    since tracer creation).  Call once on the way out of a profiled
    section; no-op when tracing is disabled or the tracer was created
    without [~gc:true]. *)

(** {2 Views} *)

val events : t -> event list
(** All events, sorted by [(ts_ns, open tick)]. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val well_formed : event list -> bool
(** Span tick-intervals [[o, c]] nest or are disjoint and each span's
    [depth] equals its number of strict enclosers. *)

(** {2 Serialization} *)

val encode_event : event -> string
(** One Chrome trace_event JSON object (single line): viewer fields
    ([ts]/[dur] in microseconds, [tid] 0) plus exact integer
    fields ([ts_ns], [dur_ns], [o], [c], [depth]) that viewers ignore
    and {!decode_event} reads back losslessly. *)

val decode_event : string -> event option

val event_of_json : Json.t -> event option
(** Decode one already-parsed trace_event object — what a Chrome-JSON
    trace file's [traceEvents] array holds (the profiler reads both
    formats back). *)

val to_jsonl : ?normalize:bool -> t -> string

val write_trace : t -> string -> unit
(** JSONL when the path ends in [.jsonl], Chrome trace JSON otherwise. *)

val write_metrics : t -> string -> unit
