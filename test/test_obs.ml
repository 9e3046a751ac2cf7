(* Telemetry subsystem tests: span nesting well-formedness, the
   normalized trace of a replay, VCD force/release annotations, and a
   qcheck round-trip of the trace_event codec. *)

module Obs = Avp_obs.Obs

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

let pipeline () =
  let design = Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse handshake_src) in
  let tr = Avp_fsm.Translate.translate design in
  let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  (tr, graph, tours)

(* {2 Span nesting} *)

let test_span_nesting () =
  let t = Obs.create () in
  Obs.with_tracer t (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "inner" (fun () -> Obs.instant "tick");
          Obs.span "inner2" (fun () -> ()));
      Obs.complete ~dur_s:0.001 "retro";
      Obs.incr "n");
  let evs = Obs.events t in
  Alcotest.(check int) "event count" 5 (List.length evs);
  Alcotest.(check bool) "well formed" true (Obs.well_formed evs);
  let depth_of name =
    (List.find (fun e -> e.Obs.name = name) evs).Obs.depth
  in
  Alcotest.(check int) "outer depth" 0 (depth_of "outer");
  Alcotest.(check int) "inner depth" 1 (depth_of "inner");
  Alcotest.(check (list (pair string int))) "counters" [ ("n", 1) ]
    (Obs.counters t)

let ev ?(dom = 0) ?(depth = 0) ~o ~c name =
  {
    Obs.name;
    cat = "t";
    ph = Obs.Span;
    ts_ns = 0;
    dur_ns = 0;
    dom;
    depth;
    o;
    c;
    args = [];
  }

let test_well_formed_rejects () =
  (* Partially overlapping tick intervals in one domain. *)
  Alcotest.(check bool) "overlap rejected" false
    (Obs.well_formed [ ev ~o:0 ~c:2 "a"; ev ~o:1 ~c:3 "b" ]);
  (* Nested span with a depth that ignores its encloser. *)
  Alcotest.(check bool) "bad depth rejected" false
    (Obs.well_formed [ ev ~o:0 ~c:3 "a"; ev ~o:1 ~c:2 "b" ]);
  Alcotest.(check bool) "good depth accepted" true
    (Obs.well_formed [ ev ~o:0 ~c:3 "a"; ev ~depth:1 ~o:1 ~c:2 "b" ]);
  (* The same ticks on different domains never interact. *)
  Alcotest.(check bool) "domains independent" true
    (Obs.well_formed [ ev ~o:0 ~c:2 "a"; ev ~dom:1 ~o:1 ~c:3 "b" ])

(* {2 Normalized traces} *)

let test_deterministic_merge () =
  let (tr, graph, tours) = pipeline () in
  let t = Obs.create () in
  Obs.with_tracer t (fun () ->
      match Avp_vectors.Replay.check tr graph tours with
      | Ok _ -> ()
      | Error m ->
        Alcotest.failf "replay mismatch: %a" Avp_vectors.Replay.pp_mismatch m);
  let j1 = Obs.to_jsonl ~normalize:true t in
  Alcotest.(check bool) "trace non-empty" true (String.length j1 > 0);
  Alcotest.(check bool) "has replay spans" true
    (Str_replace.contains j1 "replay.trace")

(* {2 VCD} *)

let test_vcd_replay () =
  let (tr, _graph, tours) = pipeline () in
  let vecs = Avp_vectors.Replay.vectors tr tours in
  Alcotest.(check bool) "have vectors" true (Array.length vecs > 0);
  let s = Avp_vectors.Replay.dump_vcd tr vecs.(0) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Str_replace.contains s needle))
    [
      "$timescale";
      "$enddefinitions";
      "$var wire 1 ";
      "$var wire 2 ";
      "#0";
      "$comment";
      "force req";
    ]

let test_vcd_force_release_golden () =
  let design = Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse handshake_src) in
  let sim = Avp_hdl.Sim.create design in
  let bv v = Avp_logic.Bv.of_int ~width:1 v in
  let v = Avp_hdl.Vcd.attach sim ~nets:[ "clk"; "rst"; "req"; "ack" ] in
  Avp_hdl.Sim.set sim "rst" (bv 1);
  Avp_hdl.Sim.step sim "clk";
  Avp_hdl.Sim.set sim "rst" (bv 0);
  Avp_hdl.Sim.force sim "req" (bv 1);
  Avp_hdl.Sim.step sim "clk";
  Avp_hdl.Sim.release sim "req";
  Avp_hdl.Sim.step sim "clk";
  Avp_hdl.Vcd.detach v;
  (* Detached: further stepping must not extend the dump. *)
  let before = Avp_hdl.Vcd.serialize v in
  Avp_hdl.Sim.step sim "clk";
  let s = Avp_hdl.Vcd.serialize v in
  Alcotest.(check string) "detach stops sampling" before s;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Str_replace.contains s needle))
    [ "$comment #"; "force req = 1 $end"; "release req $end"; "#3" ];
  Alcotest.(check bool) "no sample after detach" false
    (Str_replace.contains s "#4")

(* {2 Codec round-trip} *)

let arg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Obs.Int i) small_signed_int;
        (* i + 0.5 is exact in binary and never integral, so the
           codec's integer-collapsing float printer can't turn it
           into an Int on the way back. *)
        map (fun i -> Obs.Float (float_of_int i +. 0.5)) small_signed_int;
        map (fun s -> Obs.Str s) (string_size ~gen:printable (int_bound 12));
        map (fun b -> Obs.Bool b) bool;
      ])

let event_gen =
  QCheck.Gen.(
    let* name = string_size ~gen:printable (int_range 1 12) in
    let* cat = string_size ~gen:printable (int_bound 6) in
    let* ph = oneofl [ Obs.Span; Obs.Instant ] in
    let* ts_ns = nat in
    let* dur_ns = nat in
    let* dom = int_bound 8 in
    let* depth = int_bound 4 in
    let* o = nat in
    let* c = nat in
    let* args =
      list_size (int_bound 4)
        (pair (string_size ~gen:printable (int_range 1 6)) arg_gen)
    in
    return { Obs.name; cat; ph; ts_ns; dur_ns; dom; depth; o; c; args })

let pp_event fmt e = Format.pp_print_string fmt (Obs.encode_event e)

let event_arb = QCheck.make ~print:(Format.asprintf "%a" pp_event) event_gen

let test_codec_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trip" ~count:500 event_arb
    (fun e ->
      match Obs.decode_event (Obs.encode_event e) with
      | Some e' -> e' = e
      | None -> false)

let test_decode_garbage () =
  Alcotest.(check bool) "not json" true (Obs.decode_event "nope" = None);
  Alcotest.(check bool) "missing fields" true
    (Obs.decode_event {|{"name": "x"}|} = None)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "well-formed rejects" `Quick test_well_formed_rejects;
    Alcotest.test_case "deterministic merge -j 1/2/4" `Quick
      test_deterministic_merge;
    Alcotest.test_case "vcd replay dump" `Quick test_vcd_replay;
    Alcotest.test_case "vcd force/release golden" `Quick
      test_vcd_force_release_golden;
    QCheck_alcotest.to_alcotest test_codec_roundtrip;
    Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
  ]
