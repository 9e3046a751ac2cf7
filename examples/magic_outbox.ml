(* Extending the method beyond the processor (the paper's Section 4):
   "from the Outbox control logic, the entire PP looks like a single
   wire indicating that a SEND instruction was executed.  All of the
   state present in the PP is abstracted to one bit."

   The Outbox controller is written in the annotated Verilog subset
   with exactly that abstraction — one free bit for the whole PP and
   one for the network interface — then translated, enumerated, toured
   and replayed against itself.

   Run with: dune exec examples/magic_outbox.exe *)

open Avp_hdl
open Avp_fsm
open Avp_enum
open Avp_tour
open Avp_vectors

let outbox_src =
  {|
module outbox_control (clk, rst, send_exec, ni_ready, full, sending);
  input clk, rst;
  input send_exec; // avp free
  input ni_ready;  // avp free
  output full, sending;

  // avp clock clk
  // avp reset rst

  // FIFO occupancy 0..3 and the network-side drain FSM.
  reg [1:0] count;  // avp state
  reg [1:0] drain;  // avp state

  wire can_accept, pop;

  // avp control_begin
  assign can_accept = count != 2'd3;
  assign pop = (drain == 2'd2) & ni_ready;

  always @(posedge clk) begin
    if (rst) begin
      count <= 2'd0;
      drain <= 2'd0;
    end else begin
      // Occupancy: a send from the PP pushes (when not full); a
      // completed network transfer pops.
      if ((send_exec & can_accept) & !pop)
        count <= count + 2'd1;
      else if (!(send_exec & can_accept) & pop)
        count <= count - 2'd1;

      // Drain FSM: idle -> arbitrating -> transferring -> idle.
      case (drain)
        2'd0: if (count != 2'd0) drain <= 2'd1;
        2'd1: drain <= 2'd2;
        2'd2: if (ni_ready) drain <= 2'd0;
        default: drain <= 2'd0;
      endcase
    end
  end
  // avp control_end

  assign full = count == 2'd3;
  assign sending = drain == 2'd2;
endmodule
|}

let () =
  let elab = Elab.elaborate (Parser.parse outbox_src) in
  Format.printf "Outbox controller: %a@." Elab.pp_summary elab;

  (* Lint first: the stylized subset catches structural mistakes. *)
  (match Lint.check elab with
   | [] -> Format.printf "lint: clean@."
   | fs -> List.iter (fun f -> Format.printf "lint: %a@." Lint.pp_finding f) fs);

  let tr = Translate.translate elab in
  Format.printf
    "abstract interface: %d free bits (one of them is the whole PP)@."
    (Array.length tr.Translate.choice_bindings);

  let graph = State_graph.enumerate tr.Translate.model in
  Format.printf "enumeration: %a@." State_graph.pp_stats
    graph.State_graph.stats;

  let tours = Tour_gen.generate graph in
  Format.printf "tours: %a@." Tour_gen.pp_stats tours.Tour_gen.stats;
  assert (Tour_gen.covers_all_edges graph tours);

  (* Replay the vectors against the design, checking the predicted
     state after every cycle, and dump the first trace as VCD. *)
  let map = Condition_map.of_translation tr in
  let checked = ref 0 in
  Array.iteri
    (fun ti trace ->
      let vectors = Condition_map.vectors_of_trace map trace in
      let sim = Sim.create elab in
      let vcd =
        if ti = 0 then Some (Vcd.create sim ~nets:[ "count"; "drain"; "full"; "sending" ])
        else None
      in
      Condition_map.apply vectors sim ~clock:"clk" ~reset:"rst"
        ~on_cycle:(fun i ->
          Option.iter Vcd.sample vcd;
          Array.iteri
            (fun vi (b : Translate.binding) ->
              let expected =
                graph.State_graph.states.(trace.(i).Tour_gen.dst).(vi)
              in
              let actual =
                Avp_logic.Bv.to_int_exn (Sim.get sim b.Translate.net.Elab.name)
              in
              if actual <> expected then
                failwith
                  (Printf.sprintf "trace %d cycle %d: %s = %d, predicted %d"
                     ti i b.Translate.net.Elab.name actual expected))
            tr.Translate.state_bindings;
          incr checked);
      Option.iter
        (fun v ->
          Format.printf "@.VCD of the first trace (first 12 lines):@.";
          String.split_on_char '\n' (Vcd.serialize ~top:"outbox_control" v)
          |> List.filteri (fun i _ -> i < 12)
          |> List.iter print_endline)
        vcd)
    tours.Tour_gen.traces;
  Format.printf
    "@.replayed %d traces / %d cycles: every transition matched.@."
    (Array.length tours.Tour_gen.traces)
    !checked
