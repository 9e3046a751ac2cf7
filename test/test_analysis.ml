(* Static-analysis subsystem: golden tests per rule, deterministic
   ordering, a never-raises fuzz property, and the enumerator
   cross-check that keeps the abstract FSM claims honest. *)

open Avp_hdl
open Avp_fsm
open Avp_enum
open Avp_analysis

let elab src = Elab.elaborate (Parser.parse src)
let run src = Analysis.run (elab src)
let rules fs = List.map (fun (f : Finding.t) -> f.Finding.rule) fs

let find rule fs =
  List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) fs

let has ?net rule fs =
  List.exists
    (fun (f : Finding.t) ->
      f.Finding.rule = rule
      && match net with None -> true | Some n -> f.Finding.net = Some n)
    fs

(* ------------------------------------------------------------------ *)
(* Fixtures (kept in sync with examples/models/)                      *)
(* ------------------------------------------------------------------ *)

let comb_loop_src =
  {|
module comb_loop(a, y);
  input a;
  output y;
  wire p;
  wire q;
  assign p = q & a;
  assign q = p | a;
  assign y = p;
endmodule
|}

let tri_latch_src =
  {|
module tri_latch(clk, en_a, en_b, data_a, data_b, sel, out);
  input clk;
  input en_a;
  input en_b;
  input [7:0] data_a;
  input [7:0] data_b;
  input sel;
  output [7:0] out;

  wire [7:0] bus;
  reg  [7:0] out;
  reg  [7:0] hold;

  assign bus = en_a ? data_a : 8'bzzzzzzzz;
  assign bus = en_b ? data_b : 8'bzzzzzzzz;

  always @(*) begin
    if (sel)
      hold = bus;
  end

  always @(posedge clk)
    out <= hold;
endmodule
|}

(* ------------------------------------------------------------------ *)
(* Netlist pass goldens                                               *)
(* ------------------------------------------------------------------ *)

let test_comb_loop () =
  let fs = run comb_loop_src in
  Alcotest.(check (list string)) "only the loop" [ "comb-loop" ] (rules fs);
  let f = List.hd fs in
  Alcotest.(check bool) "error severity" true
    (f.Finding.severity = Finding.Error);
  Alcotest.(check bool) "cycle path closes" true
    (match f.Finding.path with
     | first :: _ :: _ as p -> List.nth p (List.length p - 1) = first
     | _ -> false);
  Alcotest.(check bool) "has a position" true
    (match f.Finding.loc with Some l -> l.Ast.line > 0 | None -> false)

let test_comb_self_loop () =
  let fs =
    run
      {|
module selfloop(a, y);
  input a;
  output y;
  wire p;
  assign p = p & a;
  assign y = p;
endmodule
|}
  in
  Alcotest.(check bool) "self edge detected" true (has ~net:"p" "comb-loop" fs)

let test_latch_and_xsource () =
  let fs = run tri_latch_src in
  (* The incomplete combinational assignment infers a latch, with the
     concrete uncovered path in the message. *)
  (match find "latch" fs with
   | [ f ] ->
     Alcotest.(check (option string)) "latched net" (Some "hold") f.Finding.net;
     Alcotest.(check bool) "witness path in message" true
       (let msg = f.Finding.message in
        let has_sub sub =
          let n = String.length sub and m = String.length msg in
          let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        has_sub "!(sel)")
   | fs' -> Alcotest.failf "expected 1 latch finding, got %d" (List.length fs'));
  (* The tri-state bus taints the register through the latch. *)
  (match find "x-source" fs with
   | [ f ] ->
     Alcotest.(check (option string)) "latched register" (Some "out")
       f.Finding.net;
     Alcotest.(check (list string)) "taint path" [ "bus"; "hold"; "out" ]
       f.Finding.path
   | fs' ->
     Alcotest.failf "expected 1 x-source finding, got %d" (List.length fs'));
  (* Satellite: both continuous drivers can release the bus, so the
     multiple-drivers warning must stay silent. *)
  Alcotest.(check bool) "tri-state bus not flagged" false
    (has "multiple-drivers" fs)

let test_tristate_still_warns () =
  (* One driver that can never release makes the bus contended. *)
  let fs =
    run
      {|
module contended(en, a, b, y);
  input en;
  input [7:0] a;
  input [7:0] b;
  output [7:0] y;
  assign y = a;
  assign y = en ? b : 8'bzzzzzzzz;
endmodule
|}
  in
  Alcotest.(check bool) "contended bus flagged" true
    (has ~net:"y" "multiple-drivers" fs)

let test_width_mismatch () =
  let fs =
    run
      {|
module widths(a, b, y);
  input [7:0] a;
  input [3:0] b;
  output y;
  wire [3:0] t;
  assign t = a;
  assign y = (a == b) ? 1'b1 : 1'b0;
endmodule
|}
  in
  let ws = find "width-mismatch" fs in
  Alcotest.(check int) "truncation and comparison flagged" 2 (List.length ws);
  Alcotest.(check bool) "truncation names the lhs" true
    (has ~net:"t" "width-mismatch" fs)

let test_xsource_explicit_literal () =
  let fs =
    run
      {|
module xlit(clk, en, y);
  input clk;
  input en;
  output [7:0] y;
  reg [7:0] y;
  wire [7:0] d;
  assign d = en ? 8'b11111111 : 8'bxxxxxxxx;
  always @(posedge clk)
    y <= d;
endmodule
|}
  in
  match find "x-source" fs with
  | [ f ] ->
    Alcotest.(check (option string)) "sink register" (Some "y") f.Finding.net;
    Alcotest.(check (list string)) "path from the literal's net"
      [ "d"; "y" ] f.Finding.path
  | fs' -> Alcotest.failf "expected 1 x-source finding, got %d" (List.length fs')

let test_structural_migrated () =
  (* The original Lint rules flow through the framework with net ids
     and locations attached. *)
  let fs =
    run
      {|
module structural(a, y);
  input a;
  output y;
  reg r;
  assign y = a & r;
endmodule
|}
  in
  match find "reg-never-written" fs with
  | [ f ] ->
    Alcotest.(check (option string)) "net" (Some "r") f.Finding.net;
    Alcotest.(check bool) "carries declaration position" true
      (match f.Finding.loc with Some l -> l.Ast.line > 0 | None -> false)
  | fs' ->
    Alcotest.failf "expected 1 reg-never-written, got %d" (List.length fs')

(* ------------------------------------------------------------------ *)
(* Ordering and filtering                                             *)
(* ------------------------------------------------------------------ *)

let test_deterministic_order () =
  let a = run tri_latch_src and b = run tri_latch_src in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y -> Alcotest.(check int) "byte-stable" 0 (Finding.compare x y))
    a b;
  let rec sorted = function
    | x :: (y :: _ as rest) -> Finding.compare x y <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by (severity, rule, net)" true (sorted a)

let test_only_ignore () =
  let all = run tri_latch_src in
  let only = Analysis.run ~only:[ "latch" ] (elab tri_latch_src) in
  Alcotest.(check (list string)) "--only keeps one rule" [ "latch" ]
    (rules only);
  let dropped = Analysis.run ~ignore:[ "latch" ] (elab tri_latch_src) in
  Alcotest.(check int) "--ignore drops one rule"
    (List.length all - List.length only)
    (List.length dropped);
  Alcotest.(check bool) "rule names validate" true
    (Analysis.is_rule "latch" && not (Analysis.is_rule "no-such-rule"))

let test_json_shape () =
  let fs = run comb_loop_src in
  let js = Finding.to_json ~file:"comb_loop.v" fs in
  let has_sub sub =
    let n = String.length sub and m = String.length js in
    let rec go i = i + n <= m && (String.sub js i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has findings array" true (has_sub "\"findings\"");
  Alcotest.(check bool) "counts errors" true (has_sub "\"errors\": 1");
  Alcotest.(check bool) "names the file" true (has_sub "\"file\": \"comb_loop.v\"")

(* ------------------------------------------------------------------ *)
(* FSM checks                                                         *)
(* ------------------------------------------------------------------ *)

let sml_bad =
  {|
model bad
state s : { A, B, C } = A
choice go : bool
update
  if go then
    s := B;
  elsif go then
    s := A;
  end
end
|}

let test_fsm_unreachable_and_sink () =
  let fs = Analysis.run_model (Sml.parse sml_bad) in
  Alcotest.(check bool) "C statically unreachable" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.rule = "fsm-unreachable" && f.Finding.net = Some "s")
       fs);
  (* From B both go and !go stay in B: a sink. *)
  Alcotest.(check bool) "B is a sink" true (has "fsm-sink" fs)

let test_fsm_shadowed_guard () =
  match Sml.lint sml_bad with
  | [ (line, "fsm-shadowed-guard", _) ] ->
    Alcotest.(check bool) "guard line recorded" true (line > 0)
  | other -> Alcotest.failf "expected 1 shadowed guard, got %d" (List.length other)

let test_fsm_dead_guard () =
  let findings =
    Sml.lint
      {|
model dead
state s : bool = false
choice go : bool
update
  if false then
    s := true;
  end
end
|}
  in
  Alcotest.(check bool) "constant-false guard flagged" true
    (List.exists (fun (_, rule, _) -> rule = "fsm-dead-guard") findings)

let test_fsm_dead_choice () =
  let fs =
    Analysis.run_model
      (Sml.parse
         {|
model deadchoice
state s : bool = false
choice used : bool
choice unused : bool
update
  if used then
    s := !s;
  end
end
|})
  in
  Alcotest.(check bool) "unused choice flagged" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.rule = "fsm-dead-choice" && f.Finding.net = Some "unused")
       fs);
  Alcotest.(check bool) "used choice not flagged" false
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.rule = "fsm-dead-choice" && f.Finding.net = Some "used")
       fs)

(* A counter [r] that [go] steps from 500 to 502, where it stays,
   beside [npad] 9-bit registers that hold their reset 511, and an
   unused free input.  With six pads the state is 63 bits wide, and
   its values are high enough that no state packs into an int. *)
let wide_src npad =
  let pads = List.init npad (Printf.sprintf "p%d") in
  String.concat "\n"
    ([ "module wide(clk, rst, go, spare);"; "  input clk, rst;";
       "  input go; // avp free"; "  input spare; // avp free";
       "  reg [8:0] r; // avp state" ]
    @ List.map (Printf.sprintf "  reg [8:0] %s; // avp state") pads
    @ [ "  // avp clock clk"; "  // avp reset rst";
        "  always @(posedge clk)"; "    if (rst) begin";
        "      r <= 9'd500;" ]
    @ List.map (Printf.sprintf "      %s <= 9'd511;") pads
    @ [ "    end else if (go && r != 9'd502) r <= r + 9'd1;"; "endmodule" ])

(* A model whose states do not pack into an int has no whole-state
   entry point, and the FSM checks read its successors one [next_into]
   at a time: they find what they find on the narrow design, padded. *)
let test_fsm_wider_than_int () =
  let model npad = (Translate.translate (elab (wide_src npad))).Translate.model in
  let narrow = model 0 and wide = model 6 in
  Alcotest.(check int) "63 state bits" 63 (Model.state_bits wide);
  Alcotest.(check bool) "the narrow model has the entry point" true
    (narrow.Model.successor_keys <> None);
  Alcotest.(check bool) "the wide model has none" true
    (wide.Model.successor_keys = None);
  let rn = Fsm_check.analyze narrow and rw = Fsm_check.analyze wide in
  Alcotest.(check bool) "wide: not capped" false rw.Fsm_check.capped;
  Alcotest.(check int) "same evaluations" rn.Fsm_check.evals
    rw.Fsm_check.evals;
  (* The state variables are in net order, which need not put [r]
     first. *)
  let r = ref (-1) in
  Array.iteri
    (fun i (v : Model.var) -> if v.Model.name = "r" then r := i)
    wide.Model.state_vars;
  let r = !r in
  Array.iteri
    (fun i reach ->
      Alcotest.(check (array bool))
        (Printf.sprintf "%s's reachable values"
           wide.Model.state_vars.(i).Model.name)
        (if i = r then rn.Fsm_check.reachable_values.(0)
         else Array.init 512 (fun v -> v = 511))
        reach)
    rw.Fsm_check.reachable_values;
  Alcotest.(check (list (array int))) "narrow sink" [ [| 502 |] ]
    rn.Fsm_check.sinks;
  Alcotest.(check (list (array int))) "wide sink"
    [ Array.init 7 (fun i -> if i = r then 502 else 511) ]
    rw.Fsm_check.sinks;
  List.iter
    (fun (what, r) ->
      let fs = Fsm_check.findings r in
      Alcotest.(check bool) (what ^ ": spare is a dead choice") true
        (has ~net:"spare" "fsm-dead-choice" fs);
      Alcotest.(check int) (what ^ ": one sink") 1
        (List.length (find "fsm-sink" fs)))
    [ ("narrow", rn); ("wide", rw) ];
  Alcotest.(check int) "wide: r's and the pads' unreachable values"
    (509 + (6 * 511))
    (List.length (find "fsm-unreachable" (Fsm_check.findings rw)));
  Alcotest.(check int) "the enumerator reaches 3 states" 3
    (Array.length (State_graph.enumerate wide).State_graph.states)

(* ------------------------------------------------------------------ *)
(* Enumerator cross-check on pp_control                               *)
(* ------------------------------------------------------------------ *)

(* The abstract analysis over-approximates reachability, so its
   unreachability claims must be a subset of the enumerator's ground
   truth, and its reachable abstract sinks must coincide with the
   graph's absorbing states. *)
let test_pp_cross_check () =
  let d = Elab.elaborate (Parser.parse Avp_pp.Control_hdl.source) in
  let tr = Translate.translate d in
  let r = Fsm_check.analyze tr.Translate.model in
  Alcotest.(check bool) "analysis completed within budget" false
    r.Fsm_check.capped;
  let g = State_graph.enumerate tr.Translate.model in
  let cov = State_graph.value_coverage g in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun v statically_reachable ->
          if not statically_reachable then
            Alcotest.(check bool)
              (Printf.sprintf "static-unreachable var %d value %d" i v)
              false cov.(i).(v))
        row)
    r.Fsm_check.reachable_values;
  let absorbing = State_graph.absorbing_states g in
  List.iter
    (fun s ->
      match State_graph.find_state g s with
      | None -> ()  (* abstract-only sink: not concretely reachable *)
      | Some id ->
        Alcotest.(check bool) "reachable abstract sink is absorbing" true
          (List.mem id absorbing))
    r.Fsm_check.sinks;
  List.iter
    (fun id ->
      let st = g.State_graph.states.(id) in
      Alcotest.(check bool) "absorbing state appears as an abstract sink"
        true
        (List.exists (fun s -> s = st) r.Fsm_check.sinks))
    absorbing

(* ------------------------------------------------------------------ *)
(* Fuzz: Analysis.run never raises on parser-valid designs            *)
(* ------------------------------------------------------------------ *)

let gen_expr ~names =
  let open QCheck.Gen in
  let ident = oneofl (List.map (fun n -> Ast.Ident n) names) in
  let leaf =
    oneof
      [
        ident;
        map
          (fun v -> Ast.Literal (Avp_logic.Bv.of_int ~width:8 v))
          (int_bound 255);
        map
          (fun v -> Ast.Literal (Avp_logic.Bv.of_int ~width:1 v))
          (int_bound 1);
        map
          (fun (hi, lo) ->
            let lo = min hi lo and hi = max hi lo in
            Ast.Range ("a", hi, lo))
          (pair (int_bound 7) (int_bound 7));
      ]
  in
  let unop =
    oneofl [ Ast.Not; Ast.Bnot; Ast.Uand; Ast.Uor; Ast.Uxor; Ast.Neg ]
  in
  let binop =
    oneofl
      [
        Ast.Add; Ast.Sub; Ast.Mul; Ast.Band; Ast.Bor; Ast.Bxor; Ast.Land;
        Ast.Lor; Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Shl;
        Ast.Shr;
      ]
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (2, map2 (fun op e -> Ast.Unop (op, e)) unop (expr (depth - 1)));
          (4,
           map3
             (fun op a b -> Ast.Binop (op, a, b))
             binop (expr (depth - 1)) (expr (depth - 1)));
          (1,
           map3
             (fun c a b -> Ast.Ternary (c, a, b))
             (expr (depth - 1)) (expr (depth - 1)) (expr (depth - 1)));
          (1,
           map2 (fun a b -> Ast.Concat [ a; b ]) (expr (depth - 1))
             (expr (depth - 1)));
        ]
  in
  expr 3

let render_design (e_w2, (e_cond, (e_s, (e_r, e_y)))) =
  Format.asprintf
    {|
module fz (clk, a, b, c, y);
  input clk;
  input [7:0] a, b;
  input c;
  output [7:0] y;
  reg [7:0] r;
  reg [7:0] s;
  wire [7:0] w2;
  assign w2 = %a;
  always @(*) begin
    if (%a)
      s = %a;
  end
  always @(posedge clk)
    r <= %a;
  assign y = %a;
endmodule
|}
    Ast.pp_expr e_w2 Ast.pp_expr e_cond Ast.pp_expr e_s Ast.pp_expr e_r
    Ast.pp_expr e_y

let gen_design =
  let open QCheck.Gen in
  let io = gen_expr ~names:[ "a"; "b"; "c" ] in
  let full = gen_expr ~names:[ "a"; "b"; "c"; "r"; "s"; "w2" ] in
  pair io (pair full (pair full (pair full full)))

let prop_never_raises =
  QCheck.Test.make ~name:"Analysis.run total on random designs" ~count:150
    (QCheck.make gen_design)
    (fun exprs ->
      let src = render_design exprs in
      let fs = Analysis.run (elab src) in
      (* Output paths must be total too. *)
      let (_ : string) = Finding.to_json ~file:"fz.v" fs in
      List.iter
        (fun f -> Format.asprintf "%a" (Finding.pp ~file:"fz.v") f |> ignore)
        fs;
      true)

let suite =
  [
    Alcotest.test_case "comb loop golden" `Quick test_comb_loop;
    Alcotest.test_case "comb self loop" `Quick test_comb_self_loop;
    Alcotest.test_case "latch + x-source golden" `Quick test_latch_and_xsource;
    Alcotest.test_case "contended tri-state still warns" `Quick
      test_tristate_still_warns;
    Alcotest.test_case "width mismatch golden" `Quick test_width_mismatch;
    Alcotest.test_case "x literal taint golden" `Quick
      test_xsource_explicit_literal;
    Alcotest.test_case "structural rules migrated" `Quick
      test_structural_migrated;
    Alcotest.test_case "deterministic order" `Quick test_deterministic_order;
    Alcotest.test_case "only/ignore filters" `Quick test_only_ignore;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "fsm unreachable + sink" `Quick
      test_fsm_unreachable_and_sink;
    Alcotest.test_case "fsm shadowed guard" `Quick test_fsm_shadowed_guard;
    Alcotest.test_case "fsm dead guard" `Quick test_fsm_dead_guard;
    Alcotest.test_case "fsm dead choice" `Quick test_fsm_dead_choice;
    Alcotest.test_case "fsm checks on a state wider than an int" `Quick
      test_fsm_wider_than_int;
    Alcotest.test_case "pp cross-check vs enumerator" `Slow
      test_pp_cross_check;
    QCheck_alcotest.to_alcotest prop_never_raises;
  ]
