(* Quickstart: the whole methodology on a small design.

   A handshake controller written in the stylized Verilog subset is
   translated to an FSM model, its control state graph is fully
   enumerated, transition tours are generated, and the tours are
   turned into force/release test vectors which drive the original
   design in simulation — checking at every cycle that the hardware
   takes exactly the transitions the tour predicts.

   Run with: dune exec examples/quickstart.exe *)

open Avp_hdl
open Avp_fsm
open Avp_enum
open Avp_tour
open Avp_vectors

let design_src =
  {|
module handshake (clk, rst, req, cancel, ack);
  input clk, rst;
  input req;    // avp free
  input cancel; // avp free
  output ack;

  // avp clock clk
  // avp reset rst

  reg [1:0] state; // avp state

  // avp control_begin
  always @(posedge clk) begin
    if (rst)
      state <= 2'b00;
    else begin
      case (state)
        2'b00: if (req & !cancel) state <= 2'b01;
        2'b01: if (cancel) state <= 2'b00;
               else state <= 2'b10;
        2'b10: if (!req) state <= 2'b00;
        default: state <= 2'b00;
      endcase
    end
  end
  // avp control_end

  assign ack = state == 2'b10;
endmodule
|}

let () =
  (* Step 1: HDL -> FSM (Section 3.1). *)
  let elab = Elab.elaborate (Parser.parse design_src) in
  Format.printf "Elaborated: %a@." Elab.pp_summary elab;
  let tr = Translate.translate elab in
  print_string (Murphi.emit tr);

  (* Step 2: full state enumeration (Section 3.2). *)
  let graph = State_graph.enumerate tr.Translate.model in
  Format.printf "@.Enumerated: %a@." State_graph.pp_stats
    graph.State_graph.stats;

  (* Step 3: transition tours and test vectors (Section 3.3). *)
  let tours = Tour_gen.generate graph in
  Format.printf "Tours: %a@." Tour_gen.pp_stats tours.Tour_gen.stats;
  assert (Tour_gen.covers_all_edges graph tours);

  (* Step 4: run the vectors against the design, checking that the
     implementation tracks the predicted states (Section 3.3's
     transition condition mapping in action). *)
  (match Replay.check tr graph tours with
   | Ok stats ->
     Format.printf
       "Replayed %d traces / %d cycles against the HDL design: every@.\
        transition matched the tour's prediction.@."
       stats.Replay.traces stats.Replay.cycles
   | Error m -> Format.printf "MISMATCH: %a@." Replay.pp_mismatch m);

  let map = Condition_map.of_translation tr in

  (* Show one trace's vector file. *)
  (match Array.length tours.Tour_gen.traces with
   | 0 -> ()
   | _ ->
     let vectors =
       Condition_map.vectors_of_trace map tours.Tour_gen.traces.(0)
     in
     Format.printf "@.First trace as a vector file:@.%s@."
       (String.concat "\n"
          (List.filteri
             (fun i _ -> i < 12)
             (String.split_on_char '\n' (Vector.to_string vectors)))))
