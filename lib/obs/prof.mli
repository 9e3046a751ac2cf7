(** Offline + in-process analyzer over the Obs event stream: turns raw
    spans into performance facts.

    Two views over one event list:

    - {b span aggregation} — per (category, name) label: call count,
      total and self time over the union of the label's windows on
      each domain, exact p50/p95/max from the recorded durations,
      allocation totals when the tracer sampled them, and a per-domain
      busy breakdown.  Bracketed spans nest by their
      per-domain tick intervals; a retrospective [Obs.complete] span
      has no tick interval of its own and is parented to the innermost
      span whose time window contains it (never to another span of its
      own label, so per-lane spans of one pass stay siblings);
    - {b folded stacks} — the per-domain nesting chains collapsed to
      [dom0;parent;child self_ns] lines (the inferno / speedscope /
      flamegraph.pl input format) plus a self-contained static HTML
      flame view.

    Domains are a property of the trace format: every event this
    version emits is on domain 0, and traces written by older
    versions may carry more.

    Everything is computed from the events alone, so the same analysis
    runs in-process (behind [--profile]) and offline over a [--trace]
    capture ([avp profile]). *)

type span_stat = {
  s_cat : string;
  s_name : string;
  s_count : int;
  s_total_ns : int;
      (** per domain, the union of the spans' windows, summed:
          overlapping spans of the label count once *)
  s_self_ns : int;
      (** per domain, that union minus the union of the spans' direct
          children, summed: never negative *)
  s_min_ns : int;
  s_p50_ns : int;
  s_p95_ns : int;
  s_max_ns : int;
  s_alloc_w : int;  (** summed [alloc_w] args; 0 unless GC-sampled *)
  s_by_dom : (int * int) list;
      (** domain id -> the union of the spans' windows there, sorted *)
}

type t = {
  p_events : int;
  p_wall_ns : int;  (** envelope of every event in the trace *)
  p_spans : span_stat list;  (** sorted by self time, descending *)
  p_folded : (string * int) list;
      (** collapsed stacks, lexicographic, self ns of the stack's spans
          (the union of their windows minus their children's) *)
  p_counters : (string * int) list;
      (** merged Obs counters; in-process only (a trace file does not
          carry them) *)
}

val of_events : ?counters:(string * int) list -> Obs.event list -> t

val of_tracer : Obs.t -> t
(** [of_events] over the tracer's merged events and counters. *)

val read_trace : string -> (Obs.event list, string) result
(** Load a trace written by [Obs.write_trace]: JSON-lines when the
    path ends in [.jsonl], Chrome trace JSON otherwise.  Derived flow
    events and any foreign entries are skipped. *)

val to_json : ?normalize:bool -> t -> string
(** Deterministic pretty JSON.  [~normalize:true] keeps only the
    run-invariant skeleton — per-label event counts, no times, no
    domain ids — which is byte-identical across runs of work whose
    span set is deterministic (replay, mutation, fuzzing). *)

val to_json_value : ?normalize:bool -> t -> Json.t
(** The same document as {!to_json}, unserialized — for embedding in a
    larger report. *)

val folded_string : t -> string
(** The collapsed stacks, one [stack self_ns] line each — feed to
    inferno, speedscope or flamegraph.pl. *)

val flame_html : t -> string
(** Self-contained static HTML flame (icicle) view of the folded
    stacks; every span box is sized by its total time. *)

val flame_style : string
(** The CSS the flame fragment needs — include once per page. *)

val flame_div : t -> string
(** The flame view as an embeddable [<div>] fragment (no document
    shell); pair with {!flame_style}. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: top spans by self time, then the
    counters. *)
