(* Structured tracing and metrics for the validation pipeline.

   One global tracer behind an [option ref]: every instrumentation
   site is a single load and branch when tracing is disabled, so the
   pipeline's hot paths (state expansion, compiled-sim stepping) pay
   nothing measurable.  When a tracer is installed, events and
   counters accumulate in its one buffer; serialization sorts the
   events under a total order, so the output is reproducible. *)

module Clock = struct
  (* The single clock for every measurement in the repo: perfbench and
     overhead-check timings, trace spans and progress rates all read
     this. *)
  let now_s = Unix.gettimeofday
end

module Timer = struct
  type t = float

  let start () = Clock.now_s ()
  let elapsed_s t = Clock.now_s () -. t
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
  ts_ns : int;  (* nanoseconds since the tracer's epoch *)
  dur_ns : int;
  depth : int;  (* span-nesting depth *)
  o : int;  (* tick at open... *)
  c : int;  (* ...and at close; o = c for instants and
               retrospective spans *)
  args : (string * arg) list;
}

type t = {
  epoch : float;
  (* When set, bracketed spans also record their allocation delta
     (an [alloc_w] minor+major words arg, read from counters — the
     heap is never walked) and {!sample_gc} snapshots collector
     counters.  Off by default: allocation counts vary from run to
     run, so normalized traces meant to be run-invariant must not
     carry them. *)
  gc : bool;
  gc0 : Gc.stat;  (* collector counters at tracer creation *)
  alloc0 : float;  (* allocated words at tracer creation *)
  mutable rev_events : event list;
  mutable tick : int;
  mutable depth : int;
  counters : (string, int ref) Hashtbl.t;
}

(* Allocated words: [Gc.minor_words] is the precise allocation
   counter (a pointer read — [Gc.quick_stat]'s copy is only refreshed
   at minor collections and reads stale between them); the quick_stat
   major/promoted figures correct for direct major-heap
   allocations. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let create ?(gc = false) () =
  {
    epoch = Clock.now_s ();
    gc;
    gc0 = Gc.quick_stat ();
    alloc0 = alloc_words ();
    rev_events = [];
    tick = 0;
    depth = 0;
    counters = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* The global tracer                                                  *)
(* ------------------------------------------------------------------ *)

let cur : t option ref = ref None

let current () = !cur
let enabled () = !cur <> None

let with_tracer t f =
  let prev = !cur in
  cur := Some t;
  Fun.protect ~finally:(fun () -> cur := prev) f

let ns_of t s = int_of_float ((s -. t.epoch) *. 1e9)

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)
(* ------------------------------------------------------------------ *)

let span ?(cat = "avp") ?(args = []) name f =
  match !cur with
  | None -> f ()
  | Some t ->
    let o = t.tick in
    t.tick <- o + 1;
    let depth = t.depth in
    t.depth <- depth + 1;
    let a0 = if t.gc then alloc_words () else 0. in
    let t0 = Clock.now_s () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_s () in
        t.depth <- depth;
        let c = t.tick in
        t.tick <- c + 1;
        let args =
          if t.gc then
            ("alloc_w", Int (int_of_float (alloc_words () -. a0))) :: args
          else args
        in
        t.rev_events <-
          {
            name;
            cat;
            ph = Span;
            ts_ns = ns_of t t0;
            dur_ns = ns_of t t1 - ns_of t t0;
            depth;
            o;
            c;
            args;
          }
          :: t.rev_events)
      f

(* A span recorded after the fact from a measured duration: hot loops
   that already time themselves (BFS levels, per-mutant classify)
   emit one of these per unit of work instead of bracketing. *)
let complete ?(cat = "avp") ?(args = []) ~dur_s name =
  match !cur with
  | None -> ()
  | Some t ->
    let n = t.tick in
    t.tick <- n + 1;
    let t1 = Clock.now_s () in
    let dur_ns = int_of_float (Float.max 0. dur_s *. 1e9) in
    t.rev_events <-
      {
        name;
        cat;
        ph = Span;
        ts_ns = ns_of t t1 - dur_ns;
        dur_ns;
        depth = t.depth;
        o = n;
        c = n;
        args;
      }
      :: t.rev_events

let instant ?(cat = "avp") ?(args = []) name =
  match !cur with
  | None -> ()
  | Some t ->
    let n = t.tick in
    t.tick <- n + 1;
    t.rev_events <-
      {
        name;
        cat;
        ph = Instant;
        ts_ns = ns_of t (Clock.now_s ());
        dur_ns = 0;
        depth = t.depth;
        o = n;
        c = n;
        args;
      }
      :: t.rev_events

let incr ?(by = 1) name =
  match !cur with
  | None -> ()
  | Some t -> (
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.counters name (ref by))

(* Snapshot the collector's counters as Obs counters (deltas since
   tracer creation).  One call on the way out of a profiled section —
   never per event, so it costs nothing on any hot path.  No-op
   unless the tracer was created with [~gc:true]. *)
let sample_gc () =
  match !cur with
  | None -> ()
  | Some t ->
    if t.gc then begin
      let s = Gc.quick_stat () in
      let d name v = if v <> 0 then incr ~by:v name in
      d "gc.minor_collections"
        (s.Gc.minor_collections - t.gc0.Gc.minor_collections);
      d "gc.major_collections"
        (s.Gc.major_collections - t.gc0.Gc.major_collections);
      d "gc.compactions" (s.Gc.compactions - t.gc0.Gc.compactions);
      d "gc.promoted_words"
        (int_of_float (s.Gc.promoted_words -. t.gc0.Gc.promoted_words));
      d "gc.allocated_words" (int_of_float (alloc_words () -. t.alloc0))
    end

(* ------------------------------------------------------------------ *)
(* Views                                                              *)
(* ------------------------------------------------------------------ *)

let events t =
  List.sort
    (fun a b ->
      match compare a.ts_ns b.ts_ns with 0 -> compare a.o b.o | n -> n)
    (List.rev t.rev_events)

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Well-formedness (used by the tests)                                *)
(* ------------------------------------------------------------------ *)

(* Span tick-intervals [o, c] must either nest or be disjoint, and a
   span's recorded depth must equal the number of spans strictly
   enclosing it.  Bracketed [span] calls guarantee this by
   construction; the check catches regressions in the emission
   bookkeeping. *)
let well_formed (evs : event list) =
  let ss = List.filter (fun e -> e.ph = Span) evs in
  List.for_all
    (fun a ->
      let enclosing =
        List.filter (fun b -> b != a && b.o < a.o && a.c < b.c) ss
      in
      let conflicting =
        List.exists
          (fun b ->
            b != a
            && ((b.o < a.o && a.o < b.c && b.c < a.c)
                || (a.o < b.o && b.o < a.c && a.c < b.c)))
          ss
      in
      (not conflicting) && (a.o = a.c || a.depth = List.length enclosing))
    ss

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let json_of_arg = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let arg_of_json = function
  | Json.Int i -> Some (Int i)
  | Json.Float f -> Some (Float f)
  | Json.Str s -> Some (Str s)
  | Json.Bool b -> Some (Bool b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let ph_string = function Span -> "X" | Instant -> "i"

(* One event as a Chrome trace_event object.  "ts"/"dur" carry the
   micros floats the viewers read; "ts_ns"/"dur_ns"/"o"/"c"/"depth"
   are our exact integer fields (viewers ignore unknown keys) and are
   what the decoder uses, so encode/decode round-trips losslessly. *)
let json_of_event (e : event) =
  Json.Obj
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str (ph_string e.ph));
      ("ts", Json.Float (float_of_int e.ts_ns /. 1000.));
      ("dur", Json.Float (float_of_int e.dur_ns /. 1000.));
      ("pid", Json.Int 0);
      ("tid", Json.Int 0);
      ("ts_ns", Json.Int e.ts_ns);
      ("dur_ns", Json.Int e.dur_ns);
      ("o", Json.Int e.o);
      ("c", Json.Int e.c);
      ("depth", Json.Int e.depth);
      ( "args",
        Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) e.args) );
    ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* cat = Option.bind (Json.member "cat" j) Json.to_str in
  let* ph_s = Option.bind (Json.member "ph" j) Json.to_str in
  let* ph =
    match ph_s with "X" -> Some Span | "i" -> Some Instant | _ -> None
  in
  let* ts_ns = Option.bind (Json.member "ts_ns" j) Json.to_int in
  let* dur_ns = Option.bind (Json.member "dur_ns" j) Json.to_int in
  let* o = Option.bind (Json.member "o" j) Json.to_int in
  let* c = Option.bind (Json.member "c" j) Json.to_int in
  let* depth = Option.bind (Json.member "depth" j) Json.to_int in
  let* args_j = Json.member "args" j in
  let* kvs = match args_j with Json.Obj kvs -> Some kvs | _ -> None in
  let* args =
    List.fold_right
      (fun (k, v) acc ->
        match acc, arg_of_json v with
        | Some tl, Some a -> Some ((k, a) :: tl)
        | _ -> None)
      kvs (Some [])
  in
  Some { name; cat; ph; ts_ns; dur_ns; depth; o; c; args }

let encode_event e = Json.to_string (json_of_event e)

let decode_event line =
  match Json.parse line with
  | Ok j -> event_of_json j
  | Error _ -> None

(* Sort-key normalization: drop everything that legitimately varies
   across runs (timestamps, durations, tick counters, nesting
   depth) and order events by their stable identity.  Two
   runs that did the same work then serialize byte-identically. *)
let normalize_events evs =
  let strip e =
    { e with ts_ns = 0; dur_ns = 0; depth = 0; o = 0; c = 0 }
  in
  let key e = (e.cat, e.name, ph_string e.ph, encode_event (strip e)) in
  List.map strip evs |> List.sort (fun a b -> compare (key a) (key b))

let to_jsonl ?(normalize = false) t =
  let evs = events t in
  let evs = if normalize then normalize_events evs else evs in
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (encode_event e);
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

(* Flow events: spans carrying a [flow_out] arg (a fan-out parent
   such as the replay driver) open a flow at their start timestamp;
   spans carrying [flow_in] (the per-trace or per-mutant work it fans
   out) terminate it at theirs.  Chrome/Perfetto match on (name, cat,
   id), so the fan-out renders as arrows.  The flow events are derived
   at serialization — they are not stored, so JSONL round-trips and
   normalized traces are untouched. *)
let flow_arg key (e : event) =
  match List.assoc_opt key e.args with Some (Int id) -> Some id | _ -> None

let chrome_flow_events (e : event) =
  let mk ph id =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"id\":%d,\"pid\":0,\
       \"tid\":0,\"ts\":%s%s}"
      (Json.escape "flow") (Json.escape e.cat) ph id
      (Json.float_string (float_of_int e.ts_ns /. 1000.))
      (if ph = "f" then ",\"bp\":\"e\"" else "")
  in
  (match flow_arg "flow_out" e with Some id -> [ mk "s" id ] | None -> [])
  @ match flow_arg "flow_in" e with Some id -> [ mk "f" id ] | None -> []

(* Chrome trace_event JSON, loadable in [chrome://tracing] and
   Perfetto, with the flow events above after the spans that carry
   them. *)
let to_chrome t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let add line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  List.iter
    (fun e ->
      add (encode_event e);
      List.iter add (chrome_flow_events e))
    (events t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let metrics_json t =
  let counters = List.map (fun (name, v) -> (name, Json.Int v)) (counters t) in
  Json.to_string_pretty (Json.Obj [ ("counters", Json.Obj counters) ])

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_trace t path =
  if Filename.check_suffix path ".jsonl" then write_file path (to_jsonl t)
  else write_file path (to_chrome t)

let write_metrics t path = write_file path (metrics_json t)
