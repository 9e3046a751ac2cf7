(* Profiler tests: self-time conservation over random span forests
   with retrospective spans (qcheck), golden folded stacks, the
   normalized profile JSON of a replay, and the GC counters behind
   the profiling gate. *)

module Obs = Avp_obs.Obs
module Prof = Avp_obs.Prof

(* Synthetic span with consistent ticks and timestamps: ticks default
   to the nanosecond interval so nesting follows the timeline. *)
let span ?(cat = "") ?(dom = 0) ?(args = []) ?o ?c ~ts ~dur name =
  {
    Obs.name;
    cat;
    ph = Obs.Span;
    ts_ns = ts;
    dur_ns = dur;
    dom;
    depth = 0;
    o = Option.value ~default:ts o;
    c = Option.value ~default:(ts + dur) c;
    args;
  }

let self_ns prof name =
  (List.find (fun s -> s.Prof.s_name = name) prof.Prof.p_spans).Prof.s_self_ns

(* {2 Golden folded stacks} *)

let test_folded_golden () =
  let evs =
    [
      span ~ts:0 ~dur:100 "outer";
      span ~ts:10 ~dur:20 "inner";
      span ~dom:1 ~ts:0 ~dur:50 "other";
    ]
  in
  let prof = Prof.of_events evs in
  Alcotest.(check string) "folded"
    "dom0;outer 80\ndom0;outer;inner 20\ndom1;other 50\n"
    (Prof.folded_string prof);
  let outer = List.find (fun s -> s.Prof.s_name = "outer") prof.Prof.p_spans in
  Alcotest.(check int) "outer total" 100 outer.Prof.s_total_ns;
  Alcotest.(check int) "outer self" 80 outer.Prof.s_self_ns;
  Alcotest.(check int) "wall" 100 prof.Prof.p_wall_ns;
  Alcotest.(check bool) "flame fragment renders" true
    (String.length (Prof.flame_div prof) > 0)

(* Retrospective point-tick spans (o = c, the [Obs.complete] shape —
   an enum.run emitted after its levels) carry no tick nesting, but
   nest by temporal containment: the run parents the levels, self
   time is not double-counted. *)
let test_point_span_nesting () =
  let evs =
    [
      span ~cat:"enum" ~ts:0 ~dur:100 ~o:9 ~c:9 "enum.run";
      span ~cat:"enum" ~ts:0 ~dur:40 ~o:1 ~c:1 "enum.level";
      span ~cat:"enum" ~ts:45 ~dur:50 ~o:2 ~c:2 "enum.level";
    ]
  in
  let prof = Prof.of_events evs in
  let run = List.find (fun s -> s.Prof.s_name = "enum.run") prof.Prof.p_spans in
  let lvl =
    List.find (fun s -> s.Prof.s_name = "enum.level") prof.Prof.p_spans
  in
  Alcotest.(check int) "run self = wall minus levels" 10 run.Prof.s_self_ns;
  Alcotest.(check int) "levels keep their self" 90 lvl.Prof.s_self_ns;
  Alcotest.(check string) "folded nests levels under run"
    "dom0;enum.run 10\ndom0;enum.run;enum.level 90\n"
    (Prof.folded_string prof)

(* The shape [avp mutate] emits, where the span table once showed
   mutate.run with a negative self time.  Inside the bracketed
   mutate.run, the word pass and every per-mutant classify are
   retrospective.  One classify ran an equivalence check: a bracketed
   hdl.compile, then the enumeration's levels and its enum.run, all
   emitted before the classify itself.  A zero-length classify sits on
   that check's start boundary and stays its sibling. *)
let test_retrospective_mutate_shape () =
  let evs =
    [
      span ~cat:"mutate" ~ts:0 ~dur:1000 ~o:0 ~c:20 "mutate.run";
      span ~cat:"mutate" ~ts:10 ~dur:5 ~o:1 ~c:1 "mutate.classify";
      span ~cat:"mutate" ~ts:20 ~dur:200 ~o:2 ~c:2 "mutate.pass";
      span ~cat:"mutate" ~ts:225 ~dur:0 ~o:3 ~c:3 "mutate.classify";
      span ~cat:"hdl" ~ts:230 ~dur:10 ~o:4 ~c:5 "hdl.compile";
      span ~cat:"enum" ~ts:245 ~dur:300 ~o:6 ~c:6 "enum.level";
      span ~cat:"enum" ~ts:550 ~dur:400 ~o:7 ~c:7 "enum.level";
      span ~cat:"enum" ~ts:242 ~dur:710 ~o:8 ~c:8 "enum.run";
      span ~cat:"mutate" ~ts:225 ~dur:730 ~o:9 ~c:9 "mutate.classify";
      span ~cat:"mutate" ~ts:960 ~dur:0 ~o:10 ~c:10 "mutate.classify";
    ]
  in
  let prof = Prof.of_events evs in
  let self = self_ns prof in
  List.iter
    (fun (name, want) -> Alcotest.(check int) (name ^ " self") want (self name))
    [
      ("mutate.run", 65);
      ("mutate.classify", 15);
      ("mutate.pass", 200);
      ("hdl.compile", 10);
      ("enum.run", 10);
      ("enum.level", 700);
    ];
  Alcotest.(check string) "folded"
    "dom0;mutate.run 65\n\
     dom0;mutate.run;mutate.classify 15\n\
     dom0;mutate.run;mutate.classify;enum.run 10\n\
     dom0;mutate.run;mutate.classify;enum.run;enum.level 700\n\
     dom0;mutate.run;mutate.classify;hdl.compile 10\n\
     dom0;mutate.run;mutate.pass 200\n"
    (Prof.folded_string prof)

(* One sliced pass emits a span per lane, each covering the pass: the
   windows overlap without nesting.  The round's self time and the
   lanes' total and self time count the covered stretch once, not once
   per lane.  Lanes mostly share one start (the clock ticks in
   microseconds), and a later lane whose window contains an earlier one
   still stays its sibling. *)
let test_overlapping_lane_spans () =
  let evs =
    [
      span ~cat:"fuzz" ~ts:10 ~dur:80 ~o:1 ~c:1 "fuzz.exec";
      span ~cat:"fuzz" ~ts:12 ~dur:79 ~o:2 ~c:2 "fuzz.exec";
      span ~cat:"fuzz" ~ts:0 ~dur:100 ~o:3 ~c:3 "fuzz.round";
    ]
  in
  let prof = Prof.of_events evs in
  let self = self_ns prof in
  Alcotest.(check int) "round self = window minus the lanes' union" 19
    (self "fuzz.round");
  Alcotest.(check int) "lanes count their union once" 81 (self "fuzz.exec");
  let equal_start =
    Prof.of_events
      [
        span ~cat:"fuzz" ~ts:10 ~dur:80 ~o:1 ~c:1 "fuzz.exec";
        span ~cat:"fuzz" ~ts:10 ~dur:85 ~o:2 ~c:2 "fuzz.exec";
        span ~cat:"fuzz" ~ts:0 ~dur:100 ~o:3 ~c:3 "fuzz.round";
      ]
  in
  Alcotest.(check string) "equal-start lanes are both children of the round"
    "dom0;fuzz.round 15\ndom0;fuzz.round;fuzz.exec 85\n"
    (Prof.folded_string equal_start);
  (* A full pass: 31 lanes share one window, whose length is the row's
     total. *)
  let pass =
    Prof.of_events
      (span ~cat:"fuzz" ~ts:0 ~dur:1000 ~o:0 ~c:40 "fuzz.round"
      :: List.init 31 (fun k ->
             span ~cat:"fuzz" ~ts:100 ~dur:700 ~o:(k + 1) ~c:(k + 1)
               "fuzz.exec"))
  in
  let exec =
    List.find (fun s -> s.Prof.s_name = "fuzz.exec") pass.Prof.p_spans
  in
  Alcotest.(check int) "31 lanes, one window: count" 31 exec.Prof.s_count;
  Alcotest.(check int) "31 lanes, one window: total" 700 exec.Prof.s_total_ns;
  Alcotest.(check int) "31 lanes, one window: self" 700 exec.Prof.s_self_ns;
  Alcotest.(check int) "31 lanes, one window: round self" 300
    (self_ns pass "fuzz.round")

(* {2 Self-time conservation} *)

(* Random well-nested forests: spans strictly inside their parent's
   time window, siblings disjoint.  A bracketed span's ticks follow
   its window; a retrospective one ([Obs.complete]) takes a single
   tick at its end, after everything it encloses.  Names carry their
   depth: like the real emitters, no span nests an instance of itself.
   Returns the events plus the total duration of the roots — self time
   distributes the roots' time among the tree without inventing or
   losing any. *)
let rec gen_forest ~dom ~lo ~hi ~depth st =
  if hi - lo < 4 || depth > 4 || QCheck.Gen.int_bound 3 st = 0 then ([], 0)
  else begin
    let a = QCheck.Gen.int_range lo (hi - 4) st in
    let b = QCheck.Gen.int_range (a + 3) hi st in
    let name =
      Printf.sprintf "%s%d"
        [| "alpha"; "beta"; "gamma" |].(QCheck.Gen.int_bound 2 st)
        depth
    in
    let kids, _ = gen_forest ~dom ~lo:(a + 1) ~hi:(b - 1) ~depth:(depth + 1) st in
    let rest, rest_total =
      if b + 1 >= hi then ([], 0)
      else gen_forest ~dom ~lo:(b + 1) ~hi ~depth st
    in
    let e =
      if QCheck.Gen.bool st then span ~dom ~ts:a ~dur:(b - a) ~o:b ~c:b name
      else span ~dom ~ts:a ~dur:(b - a) name
    in
    (e :: (kids @ rest), (b - a) + rest_total)
  end

let forest_gen st =
  let evs0, total0 = gen_forest ~dom:0 ~lo:0 ~hi:1000 ~depth:0 st in
  let evs1, total1 = gen_forest ~dom:1 ~lo:0 ~hi:1000 ~depth:0 st in
  (evs0 @ evs1, total0 + total1)

let forest_arb =
  QCheck.make
    ~print:(fun (evs, total) ->
      Printf.sprintf "%d spans, root total %d" (List.length evs) total)
    forest_gen

let test_self_conservation =
  QCheck.Test.make ~name:"self time sums to the roots' total" ~count:200
    forest_arb (fun (evs, root_total) ->
      let prof = Prof.of_events evs in
      let self_sum =
        List.fold_left (fun a s -> a + s.Prof.s_self_ns) 0 prof.Prof.p_spans
      in
      let folded_sum =
        List.fold_left (fun a (_, v) -> a + v) 0 prof.Prof.p_folded
      in
      self_sum = root_total && folded_sum = root_total
      && List.for_all (fun s -> s.Prof.s_self_ns >= 0) prof.Prof.p_spans)

(* {2 The normalized profile} *)

let handshake_src =
  {|
module handshake (clk, rst, req, ack);
  input clk, rst;
  input req; // avp free
  output ack;
  reg [1:0] state; // avp state
  // avp clock clk
  // avp reset rst
  always @(posedge clk) begin
    if (rst) state <= 2'b00;
    else begin
      case (state)
        2'b00: if (req) state <= 2'b01;
        2'b01: state <= 2'b10;
        2'b10: if (!req) state <= 2'b00;
        default: state <= 2'b00;
      endcase
    end
  end
  assign ack = state == 2'b10;
endmodule
|}

let test_normalized_profile_invariance () =
  let design = Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse handshake_src) in
  let tr = Avp_fsm.Translate.translate design in
  let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  let t = Obs.create () in
  Obs.with_tracer t (fun () ->
      match Avp_vectors.Replay.check tr graph tours with
      | Ok _ -> ()
      | Error m ->
        Alcotest.failf "replay mismatch: %a" Avp_vectors.Replay.pp_mismatch m);
  let j1 = Prof.to_json ~normalize:true (Prof.of_tracer t) in
  Alcotest.(check bool) "profile non-empty" true (String.length j1 > 0);
  Alcotest.(check bool) "has replay spans" true
    (Str_replace.contains j1 "replay.trace")

(* {2 GC counters behind the profiling gate} *)

let test_gc_counters () =
  let t = Obs.create ~gc:true () in
  Obs.with_tracer t (fun () ->
      Obs.span "work" (fun () ->
          ignore (Sys.opaque_identity (List.init 20_000 string_of_int)));
      Obs.sample_gc ());
  let prof = Prof.of_tracer t in
  let allocated =
    Option.value ~default:0
      (List.assoc_opt "gc.allocated_words" prof.Prof.p_counters)
  in
  Alcotest.(check bool) "allocated words counted" true (allocated > 0);
  let work = List.find (fun s -> s.Prof.s_name = "work") prof.Prof.p_spans in
  Alcotest.(check bool) "span alloc_w recorded" true (work.Prof.s_alloc_w > 0);
  (* Without ~gc the same span carries no allocation figure. *)
  let t2 = Obs.create () in
  Obs.with_tracer t2 (fun () ->
      Obs.span "work" (fun () ->
          ignore (Sys.opaque_identity (List.init 20_000 string_of_int))));
  let prof2 = Prof.of_tracer t2 in
  let work2 = List.find (fun s -> s.Prof.s_name = "work") prof2.Prof.p_spans in
  Alcotest.(check int) "gated off" 0 work2.Prof.s_alloc_w

let suite =
  [
    Alcotest.test_case "golden folded stacks" `Quick test_folded_golden;
    Alcotest.test_case "point-span temporal nesting" `Quick
      test_point_span_nesting;
    Alcotest.test_case "retrospective mutate shape" `Quick
      test_retrospective_mutate_shape;
    Alcotest.test_case "overlapping lane spans" `Quick
      test_overlapping_lane_spans;
    QCheck_alcotest.to_alcotest test_self_conservation;
    Alcotest.test_case "normalized profile -j 1/2/4" `Quick
      test_normalized_profile_invariance;
    Alcotest.test_case "gc counters" `Quick test_gc_counters;
  ]
