(* Differential tests for the simulation engines.

   Two layers:

   - packed bitvector properties: every [Bv] operation on random
     4-valued vectors of width <= 63 (crossing the packed/wide
     boundary at 62) must agree with a bit-at-a-time reference
     computed from [Bit] primitives;

   - engine differential: random small designs driven by random
     poke/force/release/step sequences must leave every net
     bit-identical under the tree-walking interpreter and a one-lane
     bit-sliced kernel. *)

open Avp_logic
open Avp_hdl

(* ------------------------------------------------------------------ *)
(* Packed Bv vs bit-list reference                                    *)
(* ------------------------------------------------------------------ *)

(* Random 4-valued bit, biased towards defined values. *)
let gen_bit =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.return Bit.L0);
      (4, QCheck.Gen.return Bit.L1);
      (1, QCheck.Gen.return Bit.X);
      (1, QCheck.Gen.return Bit.Z);
    ]

(* MSB-first bit list of the given width, as [Bv.of_bits] expects. *)
let gen_bits w = QCheck.Gen.list_size (QCheck.Gen.return w) gen_bit

let bv_of bits = Bv.of_bits bits
let bits_of v = List.init (Bv.width v) (fun i -> Bv.get v i)
(* [bits_of] is LSB-first (index order); reference ops below work on
   LSB-first lists. *)

let zext w bits =
  (* Zero-extend an LSB-first list to width [w]. *)
  bits @ List.init (max 0 (w - List.length bits)) (fun _ -> Bit.L0)

let check_bits name expected actual =
  Alcotest.(check (list string))
    name
    (List.map (fun b -> String.make 1 (Bit.to_char b)) expected)
    (List.map (fun b -> String.make 1 (Bit.to_char b)) actual)

let prop name gen f = QCheck.Test.make ~name ~count:500 (QCheck.make gen) f

let gen_pair_same_w =
  QCheck.Gen.(
    int_range 1 63 >>= fun w ->
    pair (gen_bits w) (gen_bits w))

let gen_pair_mixed_w =
  QCheck.Gen.(
    pair (int_range 1 63) (int_range 1 63) >>= fun (wa, wb) ->
    pair (gen_bits wa) (gen_bits wb))

let bitwise_ref f a b =
  let w = max (List.length a) (List.length b) in
  let a = zext w (List.rev a) and b = zext w (List.rev b) in
  List.map2 f a b

let prop_bitwise =
  prop "Bv bitwise ops = Bit reference (widths <= 63)" gen_pair_mixed_w
    (fun (a, b) ->
      let va = bv_of a and vb = bv_of b in
      List.for_all
        (fun (f_bv, f_bit) ->
          bits_of (f_bv va vb) = bitwise_ref f_bit a b)
        [
          (Bv.logand, Bit.logand);
          (Bv.logor, Bit.logor);
          (Bv.logxor, Bit.logxor);
        ])

let prop_resolve =
  prop "Bv.resolve = Bit.resolve (same width)" gen_pair_same_w
    (fun (a, b) ->
      let va = bv_of a and vb = bv_of b in
      bits_of (Bv.resolve va vb) = bitwise_ref Bit.resolve a b)

let prop_lognot =
  prop "Bv.lognot = Bit.lognot"
    QCheck.Gen.(int_range 1 63 >>= gen_bits)
    (fun a ->
      bits_of (Bv.lognot (bv_of a)) = List.map Bit.lognot (List.rev a))

let prop_reductions =
  prop "Bv reductions = Bit folds"
    QCheck.Gen.(int_range 1 63 >>= gen_bits)
    (fun a ->
      let v = bv_of a in
      let fold f init = List.fold_left f init (List.rev a) in
      Bit.equal (Bv.reduce_and v) (fold Bit.logand Bit.L1)
      && Bit.equal (Bv.reduce_or v) (fold Bit.logor Bit.L0)
      && Bit.equal (Bv.reduce_xor v) (fold Bit.logxor Bit.L0))

(* Arithmetic reference through native ints: widths <= 62 so values
   fit the packed planes; native wrap-around then masking is the
   correct modular result. *)
let gen_arith_pair =
  QCheck.Gen.(
    pair (int_range 1 62) (int_range 1 62) >>= fun (wa, wb) ->
    pair (gen_bits wa) (gen_bits wb))

let prop_arith =
  prop "Bv arithmetic = int reference (widths <= 62)" gen_arith_pair
    (fun (a, b) ->
      let va = bv_of a and vb = bv_of b in
      let w = max (Bv.width va) (Bv.width vb) in
      let m = (1 lsl (w - 1) * 2) - 1 in
      List.for_all
        (fun (f_bv, f_int) ->
          let r = f_bv va vb in
          match (Bv.to_int va, Bv.to_int vb) with
          | Some ia, Some ib ->
            Bv.equal r (Bv.of_int ~width:w (f_int ia ib land m))
          | _ -> Bv.equal r (Bv.all_x w))
        [ (Bv.add, ( + )); (Bv.sub, ( - )); (Bv.mul, ( * )) ])

let prop_relational =
  prop "Bv relational = int reference (widths <= 62)" gen_arith_pair
    (fun (a, b) ->
      let va = bv_of a and vb = bv_of b in
      List.for_all
        (fun (f_bv, f_int) ->
          let r = f_bv va vb in
          match (Bv.to_int va, Bv.to_int vb) with
          | Some ia, Some ib -> Bit.equal r (Bit.of_bool (f_int ia ib))
          | _ -> Bit.equal r Bit.X)
        [
          (Bv.eq, ( = ));
          (Bv.neq, ( <> ));
          (Bv.lt, ( < ));
          (Bv.le, ( <= ));
          (Bv.gt, ( > ));
          (Bv.ge, ( >= ));
        ])

let prop_case_eq =
  prop "Bv.case_eq = exact bit equality (same width)" gen_pair_same_w
    (fun (a, b) ->
      Bit.equal
        (Bv.case_eq (bv_of a) (bv_of b))
        (Bit.of_bool (List.for_all2 Bit.equal a b)))

let prop_select_concat =
  prop "select/concat/insert/repeat preserve bits"
    QCheck.Gen.(
      int_range 2 63 >>= fun w ->
      pair (gen_bits w) (pair (int_bound (w - 1)) (int_bound (w - 1))))
    (fun (a, (i, j)) ->
      let v = bv_of a in
      let bits = bits_of v in
      let lo = min i j and hi = max i j in
      let sel = Bv.select v ~hi ~lo in
      bits_of sel = List.filteri (fun k _ -> k >= lo && k <= hi) bits
      && bits_of (Bv.concat v sel) = bits_of sel @ bits
      &&
      let ins = Bv.insert v ~lo (Bv.of_bits [ Bit.L1 ]) in
      bits_of ins
      = List.mapi (fun k b -> if k = lo then Bit.L1 else b) bits
      && bits_of (Bv.repeat 2 sel) = bits_of sel @ bits_of sel)

let prop_shifts =
  prop "shifts = bit reference (widths <= 63)"
    QCheck.Gen.(
      int_range 1 63 >>= fun w ->
      pair (gen_bits w) (pair (gen_bits 7) bool))
    (fun (a, (amt, left)) ->
      let v = bv_of a and vamt = bv_of amt in
      let w = Bv.width v in
      let shift = if left then Bv.shift_left else Bv.shift_right in
      let r = shift v vamt in
      match Bv.to_int vamt with
      | None -> Bv.equal r (Bv.all_x w)
      | Some k ->
        let bits = bits_of v in
        let expect =
          List.init w (fun i ->
              let src = if left then i - k else i + k in
              if src >= 0 && src < w then List.nth bits src else Bit.L0)
        in
        bits_of r = expect)

let prop_planes_roundtrip =
  prop "planes/of_planes round-trip (widths <= 62)"
    QCheck.Gen.(int_range 1 62 >>= gen_bits)
    (fun a ->
      let v = bv_of a in
      match Bv.planes v with
      | None -> false
      | Some (pv, pu) ->
        Bv.equal v (Bv.of_planes ~width:(Bv.width v) pv pu)
        && List.for_all2
             (fun i b ->
               let dv = (pv lsr i) land 1 and du = (pu lsr i) land 1 in
               match b with
               | Bit.L0 -> dv = 0 && du = 0
               | Bit.L1 -> dv = 1 && du = 0
               | Bit.X -> dv = 1 && du = 1
               | Bit.Z -> dv = 0 && du = 1)
             (List.init (Bv.width v) Fun.id)
             (bits_of v))

let test_wide_boundary () =
  (* Width 62 packs, width 63 does not; both sides must agree on the
     same computations. *)
  Alcotest.(check bool) "62 packs" true (Bv.planes (Bv.zero 62) <> None);
  Alcotest.(check bool) "63 is wide" true (Bv.planes (Bv.zero 63) = None);
  let a62 = Bv.of_string (String.concat "" [ "10xz"; String.make 58 '1' ]) in
  let a63 = Bv.resize a62 63 in
  check_bits "resize keeps bits"
    (bits_of a62 @ [ Bit.L0 ])
    (bits_of a63);
  Alcotest.(check bool) "lognot agrees across boundary" true
    (bits_of (Bv.lognot a62)
    = List.filteri (fun i _ -> i < 62) (bits_of (Bv.lognot a63)))

(* ------------------------------------------------------------------ *)
(* Engine differential: random designs, random stimulus               *)
(* ------------------------------------------------------------------ *)

(* Random expressions over a fixed port environment: a, b (8 bits),
   c (1 bit), plus the state nets r, s and the wire w2 when [deep]
   context is allowed. *)
let gen_expr ~names =
  let open QCheck.Gen in
  let ident = oneofl (List.map (fun n -> Ast.Ident n) names) in
  let leaf =
    oneof
      [
        ident;
        map (fun v -> Ast.Literal (Bv.of_int ~width:8 v)) (int_bound 255);
        map (fun v -> Ast.Literal (Bv.of_int ~width:1 v)) (int_bound 1);
        map
          (fun (hi, lo) ->
            let lo = min hi lo and hi = max hi lo in
            Ast.Range ("a", hi, lo))
          (pair (int_bound 7) (int_bound 7));
        map
          (fun i -> Ast.Index ("b", Ast.Literal (Bv.of_int ~width:3 i)))
          (int_bound 7);
      ]
  in
  let unop =
    oneofl [ Ast.Not; Ast.Bnot; Ast.Uand; Ast.Uor; Ast.Uxor; Ast.Neg ]
  in
  let binop =
    oneofl
      [
        Ast.Add; Ast.Sub; Ast.Mul; Ast.Band; Ast.Bor; Ast.Bxor; Ast.Land;
        Ast.Lor; Ast.Eq; Ast.Neq; Ast.Ceq; Ast.Cneq; Ast.Lt; Ast.Le;
        Ast.Gt; Ast.Ge; Ast.Shl; Ast.Shr;
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

type action =
  | Poke of string * Bv.t
  | Force of string * Bv.t
  | Release of string
  | Step

(* Random 4-valued values so the poke/force path exercises X and Z
   planes, not just defined integers. *)
let gen_value w = QCheck.Gen.map bv_of (gen_bits w)

let gen_action =
  let open QCheck.Gen in
  let input = oneofl [ ("a", 8); ("b", 8); ("c", 1) ] in
  let forceable = oneofl [ ("w2", 8); ("y", 8); ("r", 8) ] in
  frequency
    [
      (4, input >>= fun (n, w) -> map (fun v -> Poke (n, v)) (gen_value w));
      (1, forceable >>= fun (n, w) -> map (fun v -> Force (n, v)) (gen_value w));
      (1, map (fun (n, _) -> Release n) forceable);
      (4, return Step);
    ]

let gen_design_and_actions =
  let open QCheck.Gen in
  let io = gen_expr ~names:[ "a"; "b"; "c" ] in
  let full = gen_expr ~names:[ "a"; "b"; "c"; "r"; "s"; "w2" ] in
  let out = gen_expr ~names:[ "a"; "r"; "s"; "w2" ] in
  pair
    (pair io (pair (pair full full) (pair full out)))
    (list_size (int_range 5 25) gen_action)

let render_design (e_w2, ((e_s, e_cond), (e_r, e_y))) =
  Format.asprintf
    {|
module diff (clk, a, b, c, y);
  input clk;
  input [7:0] a, b;
  input c;
  output [7:0] y;
  reg [7:0] r;
  reg [7:0] s;
  wire [7:0] w2;
  assign w2 = %a;
  always @(posedge clk) begin
    s = %a;
    if (%a)
      r <= %a;
  end
  assign y = %a;
endmodule
|}
    Ast.pp_expr e_w2 Ast.pp_expr e_s Ast.pp_expr e_cond Ast.pp_expr e_r
    Ast.pp_expr e_y

let nets_agree d si k =
  Array.for_all
    (fun (net : Elab.enet) ->
      Bv.equal (Sim.get_id si net.Elab.id)
        (Sliced.get_lane k ~lane:0 net.Elab.id))
    d.Elab.nets

let apply_action sim = function
  | Poke (n, v) ->
    Sim.set sim n v
  | Force (n, v) -> Sim.force sim n v
  | Release n -> Sim.release sim n
  | Step -> Sim.step sim "clk"

(* The kernel's poke, force and release do not settle; the
   interpreter's do, so the kernel settles after each. *)
let apply_kernel d k act =
  let id n = Elab.net_id d n in
  match act with
  | Poke (n, v) ->
    Sliced.poke_id k (id n) v;
    Sliced.settle k
  | Force (n, v) ->
    Sliced.force_id k (id n) v;
    Sliced.settle k
  | Release n ->
    Sliced.release_id k (id n);
    Sliced.settle k
  | Step -> Sliced.step k (id "clk")

(* A design the kernel rejects (a ternary whose arms differ in width)
   is discarded, not passed: the property needs 200 designs on the
   kernel within 2,000 generated, and fails if the generator stops
   producing them. *)
let prop_engines_agree =
  QCheck.Test.make
    ~name:"random designs: interpreter = one-lane kernel under random stimulus"
    ~count:200 ~max_gen:2000 ~if_assumptions_fail:(`Fatal, 1.0)
    (QCheck.make gen_design_and_actions)
    (fun (exprs, actions) ->
      let src = render_design exprs in
      match Parser.parse src with
      | exception (Parser.Error _ | Lexer.Error _) -> false
      | design ->
        let d = Elab.elaborate design in
        (match Sliced.create ~lanes:1 d with
         | None -> QCheck.assume_fail ()
         | Some k ->
           let si = Sim.create d in
           List.for_all
             (fun act ->
               apply_action si act;
               apply_kernel d k act;
               nets_agree d si k)
             actions))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitwise;
    QCheck_alcotest.to_alcotest prop_resolve;
    QCheck_alcotest.to_alcotest prop_lognot;
    QCheck_alcotest.to_alcotest prop_reductions;
    QCheck_alcotest.to_alcotest prop_arith;
    QCheck_alcotest.to_alcotest prop_relational;
    QCheck_alcotest.to_alcotest prop_case_eq;
    QCheck_alcotest.to_alcotest prop_select_concat;
    QCheck_alcotest.to_alcotest prop_shifts;
    QCheck_alcotest.to_alcotest prop_planes_roundtrip;
    Alcotest.test_case "packed/wide boundary" `Quick test_wide_boundary;
    QCheck_alcotest.to_alcotest prop_engines_agree;
  ]
