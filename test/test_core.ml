(* End-to-end pipeline tests for Avp_core.Flow. *)

open Avp_core

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

let test_flow_passes () =
  let r = Flow.run_source handshake_src in
  Alcotest.(check bool) "passed" true (Flow.passed r);
  Alcotest.(check (list int)) "no deadlock" [] r.Flow.absorbing;
  (match r.Flow.replay with
   | Ok s -> Alcotest.(check bool) "cycles" true (s.Avp_vectors.Replay.cycles > 0)
   | Error m ->
     Alcotest.failf "mismatch: %a" Avp_vectors.Replay.pp_mismatch m);
  (* Summary renders without blowing up. *)
  Alcotest.(check bool) "summary non-empty" true
    (String.length (Format.asprintf "%a" Flow.pp_summary r) > 0)

let replay_result =
  let open Avp_vectors.Replay in
  let pp ppf = function
    | Ok s -> Format.fprintf ppf "Ok %d traces / %d cycles" s.traces s.cycles
    | Error m -> Format.fprintf ppf "Error (%a)" pp_mismatch m
  in
  Alcotest.testable pp ( = )

let test_flow_catches_mutant () =
  (* The golden model's vectors, replayed against a mutated dut. *)
  let mutated =
    Str_replace.replace handshake_src
      "2'b10: if (!req) state <= 2'b00;"
      "2'b10: state <= 2'b00;"
  in
  let dut = Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse mutated) in
  let r =
    Flow.run ~dut
      (Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse handshake_src))
  in
  Alcotest.(check bool) "mutant fails the flow" false (Flow.passed r);
  (* The lanes find the mismatch; the record is the interpreter's. *)
  let oracle =
    Avp_vectors.Replay.check ~dut ~vectors:r.Flow.vectors r.Flow.translation
      r.Flow.graph r.Flow.tours
  in
  Alcotest.(check replay_result) "interpreter's mismatch record" oracle
    r.Flow.replay

(* The handshake plus a wire driven by a ternary whose arms differ in
   width under a non-constant condition: the design translates, but
   the sliced kernel rejects it, so the replay is the interpreter's. *)
let test_flow_kernel_fallback () =
  let widen src =
    Str_replace.replace src "  assign ack = state == 2'b10;"
      "  assign ack = state == 2'b10;\n\
      \  wire [3:0] odd;\n\
      \  assign odd = req ? state : 4'b1010;"
  in
  let elab src = Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse src) in
  let design = elab (widen handshake_src) in
  Alcotest.(check bool) "kernel rejects the design" true
    (Avp_hdl.Sliced.create ~lanes:1 design = None);
  let check_against_oracle ?dut name =
    let r = Flow.run ?dut design in
    let oracle =
      Avp_vectors.Replay.check ?dut ~vectors:r.Flow.vectors
        r.Flow.translation r.Flow.graph r.Flow.tours
    in
    Alcotest.(check replay_result) name oracle r.Flow.replay;
    r
  in
  let r = check_against_oracle "pristine: interpreter's stats" in
  Alcotest.(check bool) "pristine passes" true (Flow.passed r);
  let dut =
    elab
      (Str_replace.replace (widen handshake_src)
         "2'b10: if (!req) state <= 2'b00;" "2'b10: state <= 2'b00;")
  in
  let r = check_against_oracle ~dut "mutant: interpreter's mismatch" in
  Alcotest.(check bool) "mutant fails" false (Flow.passed r)

let test_flow_options () =
  let r = Flow.run_source ~all_conditions:true ~instr_limit:3 handshake_src in
  Alcotest.(check bool) "passes with options" true (Flow.passed r);
  Alcotest.(check bool) "more arcs with all conditions" true
    (Avp_enum.State_graph.num_edges r.Flow.graph > 5)

let suite =
  [
    Alcotest.test_case "flow passes" `Quick test_flow_passes;
    Alcotest.test_case "flow catches mutant" `Quick test_flow_catches_mutant;
    Alcotest.test_case "flow options" `Quick test_flow_options;
    Alcotest.test_case "flow on a design the kernel rejects" `Quick
      test_flow_kernel_fallback;
  ]
