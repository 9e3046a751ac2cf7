open Avp_pp
open Avp_fsm
open Avp_enum
open Avp_tour
open Avp_harness

(* Shared small pipeline: default control model, graph, tours. *)
let cfg = Control_model.default
let model = Control_model.model cfg
let graph = lazy (State_graph.enumerate model)

let tours limit =
  let g = Lazy.force graph in
  Tour_gen.generate ~instr_limit:limit
    ~instructions_of_edge:(fun ~src ~choice ->
      Control_model.instructions_of_edge cfg
        ~src:g.State_graph.states.(src)
        ~choice:(Model.choice_of_index model choice))
    g

(* ---------------------------------------------------------------- *)
(* Vectors                                                          *)
(* ---------------------------------------------------------------- *)

let test_vector_roundtrip () =
  let open Avp_vectors in
  let v : Vector.t =
    [|
      { Vector.actions =
          [ Vector.Force ("req", Avp_logic.Bv.of_string "1");
            Vector.Force ("data", Avp_logic.Bv.of_string "10x1") ] };
      { Vector.actions = [ Vector.Release "req" ] };
      { Vector.actions = [] };
    |]
  in
  let v' = Vector.of_string (Vector.to_string v) in
  Alcotest.(check int) "cycles" (Array.length v) (Array.length v');
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "cycle %d actions" i)
        (List.length c.Vector.actions)
        (List.length v'.(i).Vector.actions))
    v

let test_vector_bad_input () =
  match Avp_vectors.Vector.of_string "force = oops" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

(* ---------------------------------------------------------------- *)
(* Stimulus realization                                             *)
(* ---------------------------------------------------------------- *)

let test_drive_produces_programs () =
  let g = Lazy.force graph in
  let stimuli = Drive.of_traces cfg g (tours 300) in
  Alcotest.(check bool) "several stimuli" true (List.length stimuli > 1);
  List.iter
    (fun s ->
      let n = Array.length s.Drive.program in
      Alcotest.(check bool) "program non-trivial" true (n > 1);
      Alcotest.(check bool) "ends with halt" true
        (s.Drive.program.(n - 1) = Isa.Halt))
    stimuli

let prop_generated_stimuli_clean =
  (* Generated vectors on the bug-free design never cause a spurious
     mismatch. *)
  QCheck.Test.make ~name:"generated stimuli match spec on bug-free rtl"
    ~count:3
    (QCheck.make (QCheck.Gen.int_range 0 2))
    (fun seed ->
      let g = Lazy.force graph in
      let stimuli = Drive.of_traces ~seed cfg g (tours 400) in
      List.for_all
        (fun s ->
          match Campaign.run_stimulus s with
          | Compare.Match -> true
          | Compare.Mismatch _ -> false)
        stimuli)

(* ---------------------------------------------------------------- *)
(* Campaign (Table 2.1)                                             *)
(* ---------------------------------------------------------------- *)

let test_campaign_generated_finds_all () =
  let g = Lazy.force graph in
  let rows = Campaign.table_2_1 ~cfg ~graph:g ~tours:(tours 500) () in
  Alcotest.(check int) "six bugs" 6 (List.length rows);
  List.iter
    (fun (row : Campaign.bug_row) ->
      if not row.Campaign.generated.Campaign.detected then
        Alcotest.failf "generated vectors missed bug %d"
          (Bugs.number row.Campaign.bug))
    rows

let test_campaign_baselines_miss_some () =
  let g = Lazy.force graph in
  let rows = Campaign.table_2_1 ~cfg ~graph:g ~tours:(tours 500) () in
  let missed_random =
    List.exists
      (fun (r : Campaign.bug_row) ->
        not r.Campaign.random.Campaign.detected)
      rows
  in
  let missed_directed =
    List.exists
      (fun (r : Campaign.bug_row) ->
        not r.Campaign.directed.Campaign.detected)
      rows
  in
  Alcotest.(check bool) "random misses at least one bug" true missed_random;
  Alcotest.(check bool) "directed misses at least one bug" true
    missed_directed

let test_baseline_random_clean () =
  (* Random stimuli on bug-free RTL: no false alarms. *)
  for seed = 0 to 4 do
    match
      Campaign.run_stimulus
        (Baselines.random_stimulus ~seed ~instructions:150)
    with
    | Compare.Match -> ()
    | Compare.Mismatch _ as m ->
      Alcotest.failf "random seed %d: %a" seed Compare.pp_verdict m
  done

let test_baseline_directed_clean () =
  List.iter
    (fun (name, stim) ->
      match Campaign.run_stimulus stim with
      | Compare.Match -> ()
      | Compare.Mismatch _ as m ->
        Alcotest.failf "directed %s: %a" name Compare.pp_verdict m)
    (Baselines.directed_suite ())

(* ---------------------------------------------------------------- *)
(* Coverage                                                         *)
(* ---------------------------------------------------------------- *)

let test_coverage_accumulates () =
  let g = Lazy.force graph in
  let stimuli = Drive.of_traces cfg g (tours 400) in
  let acc = Coverage.create cfg g in
  List.iter (fun s -> Coverage.run acc s) stimuli;
  let c = Coverage.result acc in
  Alcotest.(check bool) "sees many states" true
    (Coverage.state_fraction c > 0.5);
  Alcotest.(check bool) "sees arcs" true (c.Coverage.arcs_seen > 100)

let test_coverage_generated_beats_random () =
  let g = Lazy.force graph in
  let stimuli = Drive.of_traces cfg g (tours 400) in
  let acc_g = Coverage.create cfg g in
  List.iter (fun s -> Coverage.run acc_g s) stimuli;
  let budget =
    List.fold_left
      (fun n s -> n + Array.length s.Drive.program - 1)
      0 stimuli
  in
  let acc_r = Coverage.create cfg g in
  for i = 0 to max 0 ((budget / 200) - 1) do
    Coverage.run acc_r (Baselines.random_stimulus ~seed:i ~instructions:200)
  done;
  let cg = Coverage.result acc_g and cr = Coverage.result acc_r in
  Alcotest.(check bool) "generated arc coverage beats random" true
    (Coverage.arc_fraction cg > Coverage.arc_fraction cr)

(* ---------------------------------------------------------------- *)
(* Figures 4.1 / 4.2                                                *)
(* ---------------------------------------------------------------- *)

let test_fig_4_1 () =
  let o = Fsm_demo.figure_4_1 () in
  Alcotest.(check bool) "extra behaviour detected" true o.Fsm_demo.detected

let test_fig_4_2_escapes () =
  let o = Fsm_demo.figure_4_2 ~all_conditions:false in
  Alcotest.(check bool) "bug escapes first-condition labels" false
    o.Fsm_demo.detected

let test_fig_4_2_caught () =
  let o = Fsm_demo.figure_4_2 ~all_conditions:true in
  Alcotest.(check bool) "bug caught with all conditions" true
    o.Fsm_demo.detected;
  let d = Fsm_demo.figure_4_2 ~all_conditions:false in
  Alcotest.(check bool) "all-conditions tours more arcs" true
    (o.Fsm_demo.arcs_toured > d.Fsm_demo.arcs_toured)

let suite =
  [
    Alcotest.test_case "vector roundtrip" `Quick test_vector_roundtrip;
    Alcotest.test_case "vector bad input" `Quick test_vector_bad_input;
    Alcotest.test_case "drive produces programs" `Quick
      test_drive_produces_programs;
    QCheck_alcotest.to_alcotest prop_generated_stimuli_clean;
    Alcotest.test_case "campaign: generated finds all six" `Slow
      test_campaign_generated_finds_all;
    Alcotest.test_case "campaign: baselines miss bugs" `Slow
      test_campaign_baselines_miss_some;
    Alcotest.test_case "random baseline clean" `Quick
      test_baseline_random_clean;
    Alcotest.test_case "directed baseline clean" `Quick
      test_baseline_directed_clean;
    Alcotest.test_case "coverage accumulates" `Slow
      test_coverage_accumulates;
    Alcotest.test_case "coverage: generated beats random" `Slow
      test_coverage_generated_beats_random;
    Alcotest.test_case "figure 4.1" `Quick test_fig_4_1;
    Alcotest.test_case "figure 4.2 escapes by default" `Quick
      test_fig_4_2_escapes;
    Alcotest.test_case "figure 4.2 caught with fix" `Quick
      test_fig_4_2_caught;
  ]

(* ---------------------------------------------------------------- *)
(* Performance comparison                                           *)
(* ---------------------------------------------------------------- *)

let perf_kernel () =
  let program =
    Avp_pp.Asm.assemble
      {|
        addi r9, r0, 16
        addi r2, r0, 0
      loop:
        lw   r1, 0(r2)
        addi r3, r1, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r3, r3, 1
        addi r2, r2, 4
        andi r2, r2, 63
        subi r9, r9, 1
        bne  r9, r0, loop
        halt
      |}
  in
  {
    Drive.program;
    ready = (fun _ -> (true, true));
    inbox = [];
    mem_init = List.init 64 (fun a -> (a, a));
    source_edges = 0;
  }

let test_perf_blind_spot () =
  let dut = { Rtl.default_config with Rtl.perf_redrive = true } in
  let v = Perf.compare ~reference:Rtl.default_config ~dut (perf_kernel ()) in
  Alcotest.(check bool) "results match despite the bug" true
    v.Perf.results_match;
  Alcotest.(check bool) "cycle accounting catches it" true
    (v.Perf.dut.Perf.cycles > v.Perf.reference.Perf.cycles)

let test_perf_identical_configs () =
  let v =
    Perf.compare ~reference:Rtl.default_config ~dut:Rtl.default_config
      (perf_kernel ())
  in
  Alcotest.(check int) "same cycles" v.Perf.reference.Perf.cycles
    v.Perf.dut.Perf.cycles;
  Alcotest.(check bool) "slowdown 1.0" true
    (abs_float (v.Perf.slowdown -. 1.0) < 1e-9)

let suite =
  suite
  @ [
      Alcotest.test_case "perf blind spot" `Quick test_perf_blind_spot;
      Alcotest.test_case "perf identical configs" `Quick
        test_perf_identical_configs;
    ]

(* ---------------------------------------------------------------- *)
(* Replay                                                           *)
(* ---------------------------------------------------------------- *)

let handshake_translation () =
  let src =
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
  in
  Translate.translate (Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse src))

let test_replay_matches () =
  let tr = handshake_translation () in
  let g = State_graph.enumerate tr.Translate.model in
  let t = Tour_gen.generate g in
  match Avp_vectors.Replay.check tr g t with
  | Ok stats ->
    Alcotest.(check bool) "replayed cycles" true
      (stats.Avp_vectors.Replay.cycles > 0)
  | Error m ->
    Alcotest.failf "unexpected mismatch: %a" Avp_vectors.Replay.pp_mismatch m

let suite =
  suite
  @ [ Alcotest.test_case "replay matches tour" `Quick test_replay_matches ]

let test_branch_model_stimuli_clean () =
  (* The squashing-branch extension produces real branches in the
     realized programs, and the bug-free RTL still matches the spec. *)
  let cfg = { Control_model.default with Control_model.with_branches = true } in
  let model = Control_model.model cfg in
  let g = State_graph.enumerate model in
  let tours =
    Tour_gen.generate ~instr_limit:400
      ~instructions_of_edge:(fun ~src ~choice ->
        Control_model.instructions_of_edge cfg
          ~src:g.State_graph.states.(src)
          ~choice:(Model.choice_of_index model choice))
      g
  in
  let stimuli = Drive.of_traces cfg g tours in
  let has_branch =
    List.exists
      (fun s ->
        Array.exists
          (function Isa.Beq _ | Isa.Bne _ -> true | _ -> false)
          s.Drive.program)
      stimuli
  in
  Alcotest.(check bool) "branches realized" true has_branch;
  List.iteri
    (fun i s ->
      match Campaign.run_stimulus s with
      | Compare.Match -> ()
      | Compare.Mismatch _ as m ->
        Alcotest.failf "stimulus %d: %a" i Compare.pp_verdict m)
    stimuli

let suite =
  suite
  @ [
      Alcotest.test_case "branch-model stimuli clean" `Slow
        test_branch_model_stimuli_clean;
    ]

(* ---------------------------------------------------------------- *)
(* compare_effects semantics                                        *)
(* ---------------------------------------------------------------- *)

let test_compare_prefix_on_truncation () =
  (* An unfinished RTL run is a prefix: no false mismatch. *)
  let spec =
    [ Spec.Reg_write (1, 5); Spec.Reg_write (2, 6); Spec.Mem_write (0, 9) ]
  in
  let rtl = [ Spec.Reg_write (1, 5) ] in
  (match Compare.compare_effects ~spec ~rtl ~rtl_halted:false with
   | Compare.Match -> ()
   | m -> Alcotest.failf "prefix flagged: %a" Compare.pp_verdict m);
  (* ... but a halted RTL must have produced everything. *)
  match Compare.compare_effects ~spec ~rtl ~rtl_halted:true with
  | Compare.Mismatch { expected = Some _; actual = None; _ } -> ()
  | m -> Alcotest.failf "missing tail not flagged: %a" Compare.pp_verdict m

let test_compare_extra_effect_is_mismatch () =
  let spec = [ Spec.Outbox_send 1 ] in
  let rtl = [ Spec.Outbox_send 1; Spec.Outbox_send 2 ] in
  match Compare.compare_effects ~spec ~rtl ~rtl_halted:false with
  | Compare.Mismatch { category = "outbox"; expected = None;
                       actual = Some _; _ } -> ()
  | m -> Alcotest.failf "extra send not flagged: %a" Compare.pp_verdict m

let test_compare_categories_independent () =
  (* Split stores draining late reorder memory writes after register
     writes: per-category streams must not see that as a mismatch. *)
  let spec =
    [ Spec.Mem_write (4, 1); Spec.Reg_write (1, 2); Spec.Outbox_send 3 ]
  in
  let rtl =
    [ Spec.Reg_write (1, 2); Spec.Outbox_send 3; Spec.Mem_write (4, 1) ]
  in
  match Compare.compare_effects ~spec ~rtl ~rtl_halted:true with
  | Compare.Match -> ()
  | m -> Alcotest.failf "benign reordering flagged: %a" Compare.pp_verdict m

let test_compare_value_mismatch_located () =
  let spec = [ Spec.Reg_write (1, 2); Spec.Reg_write (2, 3) ] in
  let rtl = [ Spec.Reg_write (1, 2); Spec.Reg_write (2, 0xDEAD) ] in
  match Compare.compare_effects ~spec ~rtl ~rtl_halted:true with
  | Compare.Mismatch { category = "register-write"; index = 1; _ } -> ()
  | m -> Alcotest.failf "wrong location: %a" Compare.pp_verdict m

let suite =
  suite
  @ [
      Alcotest.test_case "compare: prefix on truncation" `Quick
        test_compare_prefix_on_truncation;
      Alcotest.test_case "compare: extra effect" `Quick
        test_compare_extra_effect_is_mismatch;
      Alcotest.test_case "compare: categories independent" `Quick
        test_compare_categories_independent;
      Alcotest.test_case "compare: mismatch located" `Quick
        test_compare_value_mismatch_located;
    ]
