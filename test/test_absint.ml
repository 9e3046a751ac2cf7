(* Abstract interpretation: the soundness property (every concrete
   simulation and every enumerated state stays inside the proven
   invariants), the mutation prune, the scheduling-race goldens, and
   the README rules-table drift check. *)

open Avp_hdl
open Avp_analysis
module Absint = Avp_analysis.Absint

let elab src = Elab.elaborate (Parser.parse src)

(* ------------------------------------------------------------------ *)
(* Fixtures (kept in sync with examples/models/)                      *)
(* ------------------------------------------------------------------ *)

(* A small design exercising every corner of the domain: a tied-off
   constant cone, a register with a proven post-reset range, a
   counter whose interval widens to top, and free inputs. *)
let absq_src =
  {|
module absq(clk, rst, in, sel, out);
  input clk;
  input rst;
  input [3:0] in;
  input sel;
  output [3:0] out;

  // avp clock clk
  // avp reset rst

  wire tied;
  wire [3:0] gated;
  reg [3:0] acc;
  reg [1:0] small;
  reg [3:0] out;

  assign tied = 1'b0;
  assign gated = in & {4{tied}};

  always @(posedge clk) begin
    if (rst) begin
      acc <= 4'b0000;
      small <= 2'b01;
      out <= 4'b0000;
    end
    else begin
      acc <= sel ? (acc + 4'b0001) : in;
      small <= 2'b01;
      out <= acc ^ gated;
    end
  end
endmodule
|}

let sched_race_src =
  {|
module sched_race(clk, rst, a, q);
  input clk;
  input rst;
  input a;
  output q;

  // avp clock clk
  // avp reset rst

  reg q;
  reg mix;

  always @(posedge clk) begin
    mix = a;
    q <= mix;
    mix <= ~a;
  end
endmodule
|}

let dual_edge_src =
  {|
module dual_edge(clk, rst, a, b, q);
  input clk;
  input rst;
  input a;
  input b;
  output q;

  // avp clock clk
  // avp reset rst

  reg q;

  always @(posedge clk) begin
    if (rst)
      q <= 1'b0;
    else
      q <= a;
  end

  always @(posedge clk) begin
    if (!rst)
      q <= b;
  end
endmodule
|}

(* ------------------------------------------------------------------ *)
(* Soundness: concrete runs stay inside the invariants                *)
(* ------------------------------------------------------------------ *)

(* [c] conforms to [a] iff joining the concrete singleton back into
   the abstract value changes nothing. *)
let conforms (a : Absint.av) (bv : Avp_logic.Bv.t) =
  (not (Absint.interesting a)) || Absint.join a (Absint.of_bv bv) = a

let check_env what (env : Absint.av array) t =
  Array.iteri
    (fun id a ->
      let bv = Sim.get_id t id in
      if not (conforms a bv) then
        Alcotest.failf "%s: net %s = %s escapes proven %s"
          what
          (Sim.design t).Elab.nets.(id).Elab.name
          (Avp_logic.Bv.to_string bv) (Absint.av_str a))
    env

let random_bv st width =
  let bits = min width 30 in
  Avp_logic.Bv.of_int ~width (Random.State.int st (1 lsl bits))

(* Poke every unconstrained net (except the ones [skip] holds) with a
   random defined value. *)
let poke_frees st (inv : Absint.invariants) ~skip t =
  Array.iteri
    (fun id free ->
      if free && not (List.mem (Some id) skip) then
        Sim.poke_id t id (random_bv st inv.Absint.design.Elab.nets.(id).Elab.width))
    inv.Absint.tops

(* Any stimulus that only pokes unconstrained nets must stay inside
   [all] (and [steady], at settled points) forever. *)
let free_run_stays_inside ~seed ~cycles (inv : Absint.invariants) =
  let st = Random.State.make [| seed |] in
  let t = Sim.create inv.Absint.design in
  let clk =
    Option.map (fun id -> inv.Absint.design.Elab.nets.(id).Elab.name)
      inv.Absint.clock
  in
  Sim.settle t;
  check_env "all(power-on)" inv.Absint.all t;
  for _ = 1 to cycles do
    poke_frees st inv ~skip:[ inv.Absint.clock ] t;
    Sim.settle t;
    check_env "all(settled)" inv.Absint.all t;
    check_env "steady(settled)" inv.Absint.steady t;
    (match clk with Some c -> Sim.step t c | None -> ());
    check_env "all(stepped)" inv.Absint.all t;
    check_env "steady(stepped)" inv.Absint.steady t
  done

(* The translate/replay protocol (reset held one cycle, released,
   only the clock stepped) must stay inside [run] at every settled
   observation point. *)
let protocol_run_stays_inside ~seed ~cycles (inv : Absint.invariants) =
  let st = Random.State.make [| seed + 7919 |] in
  let d = inv.Absint.design in
  let clk = d.Elab.nets.(Option.get inv.Absint.clock).Elab.name in
  let rst = d.Elab.nets.(Option.get inv.Absint.reset).Elab.name in
  let t = Sim.create d in
  let one = Avp_logic.Bv.of_int ~width:1 1 in
  let zero = Avp_logic.Bv.of_int ~width:1 0 in
  Sim.set t rst one;
  poke_frees st inv ~skip:[ inv.Absint.clock; inv.Absint.reset ] t;
  Sim.step t clk;
  Sim.set t rst zero;
  Sim.settle t;
  check_env "run(reset released)" inv.Absint.run t;
  for _ = 1 to cycles do
    poke_frees st inv ~skip:[ inv.Absint.clock; inv.Absint.reset ] t;
    Sim.settle t;
    Sim.step t clk;
    check_env "run(stepped)" inv.Absint.run t
  done

let absq_inv = lazy (Absint.analyze (elab absq_src))
let pp_inv = lazy (Absint.analyze (Avp_pp.Control_hdl.elaborate ()))

let prop_absq_sound =
  QCheck.Test.make ~name:"absq: random concrete runs conform" ~count:400
    QCheck.small_nat (fun seed ->
      let inv = Lazy.force absq_inv in
      free_run_stays_inside ~seed ~cycles:12 inv;
      protocol_run_stays_inside ~seed ~cycles:12 inv;
      true)

let prop_pp_sound =
  QCheck.Test.make ~name:"pp control: random concrete runs conform" ~count:40
    QCheck.small_nat (fun seed ->
      let inv = Lazy.force pp_inv in
      free_run_stays_inside ~seed ~cycles:10 inv;
      protocol_run_stays_inside ~seed ~cycles:10 inv;
      true)

(* ------------------------------------------------------------------ *)
(* Proven facts: the tied-off cone and the post-reset range           *)
(* ------------------------------------------------------------------ *)

let get_net (inv : Absint.invariants) name =
  Elab.net_id inv.Absint.design name

let test_absq_invariants () =
  let inv = Lazy.force absq_inv in
  Alcotest.(check bool) "protocol analysis ran" true inv.Absint.run_distinct;
  Alcotest.(check bool) "latch free" true inv.Absint.latch_free;
  let steady name = inv.Absint.steady.(get_net inv name) in
  let run name = inv.Absint.run.(get_net inv name) in
  Alcotest.(check string) "tied is constant 0" "1'b0"
    (Absint.av_str (steady "tied"));
  Alcotest.(check string) "gated cone folds" "4'b0000"
    (Absint.av_str (steady "gated"));
  Alcotest.(check string) "small pinned post-reset" "2'b01"
    (Absint.av_str (run "small"));
  Alcotest.(check bool) "small defined post-reset" true
    (Absint.defined (run "small"));
  (* [in] is free and a poke can force X into [acc]: no definedness
     claim may survive on the input cone. *)
  Alcotest.(check bool) "acc stays top" false
    (Absint.interesting (run "acc"));
  (match Absint.to_bv (steady "gated") with
   | Some bv ->
     Alcotest.(check string) "gated constant" "0000"
       (Avp_logic.Bv.to_string bv)
   | None -> Alcotest.fail "gated not proven constant");
  Alcotest.(check bool) "free input not constant" false
    (Absint.is_const (steady "in"))

let test_absq_findings () =
  let inv = Lazy.force absq_inv in
  let fs = Absint.findings inv in
  let rules = List.map (fun (f : Finding.t) -> f.Finding.rule) fs in
  Alcotest.(check bool) "constant-net fired" true
    (List.mem "constant-net" rules);
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "finding %s has a position" f.Finding.rule)
        true
        (f.Finding.loc <> None))
    fs

(* ------------------------------------------------------------------ *)
(* Enumerator cross-validation: every reachable state is inside [run] *)
(* ------------------------------------------------------------------ *)

(* Every enumerated state, the reset state included, is a post-reset
   observation of the translated design, so each state variable's
   value must conform to its net's [run] invariant: known bits and
   value range. *)
let test_enumerated_states_inside_run () =
  let tr = Avp_pp.Control_hdl.translate () in
  let inv = Lazy.force pp_inv in
  Alcotest.(check bool) "protocol analysis ran" true inv.Absint.run_distinct;
  let g = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  Array.iteri
    (fun sid vals ->
      Array.iteri
        (fun i (b : Avp_fsm.Translate.binding) ->
          let net = b.Avp_fsm.Translate.net in
          let a = inv.Absint.run.(get_net inv net.Elab.name) in
          let bv = Avp_logic.Bv.of_int ~width:net.Elab.width vals.(i) in
          if not (conforms a bv) then
            Alcotest.failf "state %d: %s = %d escapes proven %s" sid
              net.Elab.name vals.(i) (Absint.av_str a))
        tr.Avp_fsm.Translate.state_bindings)
    g.Avp_enum.State_graph.states

(* ------------------------------------------------------------------ *)
(* Mutation prune: divergence proofs and their absence                *)
(* ------------------------------------------------------------------ *)

let test_prune_divergent_mutant () =
  let pristine = Lazy.force absq_inv in
  (* The mutant retargets every write of [small]: its post-reset
     invariant {2'b10} is disjoint from the pristine {2'b01}, so a
     bit is proven to differ at every observation. *)
  let mutant_src =
    Str_replace.replace
      (Str_replace.replace absq_src "small <= 2'b01;" "small <= 2'b10;")
      "small <= 2'b01;" "small <= 2'b10;"
  in
  (match
     Avp_mutate.Filter.prune ~checked:[ "small"; "out" ] ~pristine
       (elab mutant_src)
   with
   | Some why ->
     Alcotest.(check bool) "names the diverging net" true
       (String.length why > 6 && String.sub why 0 5 = "small")
   | None -> Alcotest.fail "divergent mutant not pruned");
  (* A mutant that only perturbs a free-input cone proves nothing. *)
  let benign_src =
    Str_replace.replace absq_src "acc ^ gated" "acc | gated"
  in
  Alcotest.(check bool) "benign mutant not pruned" true
    (Avp_mutate.Filter.prune ~checked:[ "small"; "out" ] ~pristine
       (elab benign_src)
     = None)

(* ------------------------------------------------------------------ *)
(* Race detector goldens                                              *)
(* ------------------------------------------------------------------ *)

let golden_messages fs =
  List.map
    (fun (f : Finding.t) ->
      Format.asprintf "%a" (Finding.pp ~file:"fixture.v") f)
    fs

let test_sched_race_golden () =
  let fs = Analysis.run (elab sched_race_src) in
  Alcotest.(check (list string)) "blocking/nonblocking collision"
    [
      "fixture.v:12: error: [mixed-assignment] mix written by both blocking \
       and nonblocking assignments";
      "fixture.v:15: warning: [sched-race] mix blocking write at 15:5 races \
       the nonblocking write at 17:5: a same-cycle reader sees either value \
       depending on scheduling";
    ]
    (golden_messages fs)

let test_dual_edge_golden () =
  let fs = Analysis.run (elab dual_edge_src) in
  Alcotest.(check (list string)) "same-edge dual writer"
    [
      "fixture.v:16: error: [sched-race-edge] q written at 16:7 and 23:7 by \
       two processes triggered on posedge clk: the nonblocking commit order \
       is unspecified";
    ]
    (golden_messages fs)

(* ------------------------------------------------------------------ *)
(* README rules table stays generated                                 *)
(* ------------------------------------------------------------------ *)

let test_readme_rules_drift () =
  (* cwd is test/ under `dune runtest` but the project root under
     `dune exec test/test_main.exe`. *)
  let path =
    List.find Sys.file_exists [ "../README.md"; "README.md" ]
  in
  let readme =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let table = Analysis.rules_markdown () in
  Alcotest.(check bool)
    "README embeds the generated rules table verbatim \
     (regenerate with: avp lint pp --rules-md)"
    true
    (Str_replace.contains readme table)

(* ------------------------------------------------------------------ *)
(* One reading of the annotations                                     *)
(* ------------------------------------------------------------------ *)

(* Every annotation sits in a child instance: its directives arrive as
   "u0: payload" and its attributes on nets named u0.*.  The clock and
   the reset name the child's ports, aliases of the top's nets. *)
let child_annotations_src =
  {|
module ctl(clk, rst);
  input clk;
  input rst;
  // avp clock clk
  // avp reset rst
  // avp free go
  // avp tie mode 1
  wire go;
  wire [1:0] mode;
  wire en; // avp free
  wire [1:0] lim; // avp tie 2
  reg [1:0] st; // avp state

  always @(posedge clk) begin
    if (rst) st <= 2'b00;
    else if (go && en && mode != 2'b00)
      st <= (st == lim) ? 2'b00 : st + 2'b01;
  end
endmodule

module top(clk, rst);
  input clk;
  input rst;
  ctl u0 (.clk(clk), .rst(rst));
endmodule
|}

let test_child_annotations () =
  let d = elab child_annotations_src in
  let names ids =
    List.sort compare (List.map (fun id -> d.Elab.nets.(id).Elab.name) ids)
  in
  let tr = Avp_fsm.Translate.translate d in
  let bound bs =
    names
      (Array.to_list
         (Array.map
            (fun (b : Avp_fsm.Translate.binding) ->
              b.Avp_fsm.Translate.net.Elab.id)
            bs))
  in
  Alcotest.(check (list string)) "translate: the free nets are the choices"
    [ "u0.en"; "u0.go" ] (bound tr.Avp_fsm.Translate.choice_bindings);
  Alcotest.(check (list string)) "translate: the state attribute"
    [ "u0.st" ] (bound tr.Avp_fsm.Translate.state_bindings);
  (* The ties hold: mode 1 lets the counter run, lim 2 wraps it after
     state 2. *)
  Alcotest.(check int) "translate: the ties shape the graph" 3
    (Avp_enum.State_graph.num_states
       (Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model));
  let inv = Absint.analyze d in
  Alcotest.(check (list string))
    "absint: unconstrained = top inputs, frees and ties"
    [ "clk"; "rst"; "u0.en"; "u0.go"; "u0.lim"; "u0.mode" ]
    (names
       (List.filter (Array.get inv.Absint.tops)
          (List.init (Array.length d.Elab.nets) Fun.id)));
  Alcotest.(check (option string)) "same clock"
    (Some (Elab.net d tr.Avp_fsm.Translate.clock).Elab.name)
    (Option.map (fun id -> d.Elab.nets.(id).Elab.name) inv.Absint.clock);
  Alcotest.(check (option string)) "same reset"
    (Some (Elab.net d tr.Avp_fsm.Translate.reset).Elab.name)
    (Option.map (fun id -> d.Elab.nets.(id).Elab.name) inv.Absint.reset)

(* A child's free or tied port connected to a net of its parent: the
   directive names u0.go, an alias of the top's wire go, which is the
   net the translation and the analysis see. *)
let child_port_src directive =
  Printf.sprintf
    {|
module ctl(clk, rst, go, q);
  input clk;
  input rst;
  input go;
  output q;
  // avp clock clk
  // avp reset rst
  // avp %s
  reg st; // avp state

  always @(posedge clk) begin
    if (rst) st <= 1'b0;
    else if (go) st <= ~st;
  end
  assign q = st;
endmodule

module top(clk, rst, q);
  input clk;
  input rst;
  output q;
  wire go;
  ctl u0 (.clk(clk), .rst(rst), .go(go), .q(q));
endmodule
|}
    directive

(* The choice names and the edge count of the port's design, and
   whether the analysis leaves go unconstrained. *)
let child_port directive =
  let d = elab (child_port_src directive) in
  let tr = Avp_fsm.Translate.translate d in
  let g = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let choices =
    Array.to_list
      (Array.map
         (fun (b : Avp_fsm.Translate.binding) ->
           b.Avp_fsm.Translate.net.Elab.name)
         tr.Avp_fsm.Translate.choice_bindings)
  in
  let inv = Absint.analyze d in
  ( choices,
    Avp_enum.State_graph.num_edges g,
    inv.Absint.tops.(Elab.net_id d "go") )

let test_child_free_port () =
  let choices, edges, top = child_port "free go" in
  Alcotest.(check (list string)) "the port's net is the choice" [ "go" ]
    choices;
  Alcotest.(check int) "go toggles or holds the state" 4 edges;
  Alcotest.(check bool) "absint: go is unconstrained" true top

let test_child_tie_port () =
  let choices, edges, top = child_port "tie go 1" in
  Alcotest.(check (list string)) "no choice" [] choices;
  Alcotest.(check int) "go = 1 toggles the state" 2 edges;
  Alcotest.(check bool) "absint: go is unconstrained" true top

let suite =
  [
    QCheck_alcotest.to_alcotest prop_absq_sound;
    QCheck_alcotest.to_alcotest prop_pp_sound;
    Alcotest.test_case "absq proven invariants" `Quick test_absq_invariants;
    Alcotest.test_case "absq invariant findings" `Quick test_absq_findings;
    Alcotest.test_case "enumerated states inside run" `Slow
      test_enumerated_states_inside_run;
    Alcotest.test_case "prune divergent mutant" `Quick
      test_prune_divergent_mutant;
    Alcotest.test_case "sched-race golden" `Quick test_sched_race_golden;
    Alcotest.test_case "dual-edge golden" `Quick test_dual_edge_golden;
    Alcotest.test_case "README rules table drift" `Quick
      test_readme_rules_drift;
    Alcotest.test_case "child-instance annotations: translate = absint"
      `Quick test_child_annotations;
    Alcotest.test_case "child-instance free port aliased to a parent net"
      `Quick test_child_free_port;
    Alcotest.test_case "child-instance tied port aliased to a parent net"
      `Quick test_child_tie_port;
  ]
