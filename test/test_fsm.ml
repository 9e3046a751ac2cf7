open Avp_fsm
open Avp_hdl

let contains_sub text needle =
  let tl = String.length text and nl = String.length needle in
  let rec loop i =
    if i + nl > tl then false
    else if String.sub text i nl = needle then true
    else loop (i + 1)
  in
  nl = 0 || loop 0


(* A two-FSM model with an interlock: a requester and a server that
   cannot both be busy. *)
let interlock_model () =
  let b = Model.Builder.create "interlock" in
  let req = Model.Builder.state b "req_fsm" [| "idle"; "wait"; "busy" |] in
  let srv = Model.Builder.state b "srv_fsm" [| "idle"; "busy" |] in
  let go = Model.Builder.choice_bool b "go" in
  let done_ = Model.Builder.choice_bool b "done" in
  Model.Builder.build b ~step:(fun ctx ->
      let open Model.Builder in
      (match get ctx req with
       | 0 -> if chosen ctx go = 1 then set ctx req 1
       | 1 -> if get ctx srv = 0 then set ctx req 2
       | 2 -> if chosen ctx done_ = 1 then set ctx req 0
       | _ -> assert false);
      match get ctx srv with
      | 0 -> if get ctx req = 1 then set ctx srv 1
      | 1 -> if chosen ctx done_ = 1 then set ctx srv 0
      | _ -> assert false)

let test_builder_model () =
  let m = interlock_model () in
  Alcotest.(check int) "state bits" 3 (Model.state_bits m);
  Alcotest.(check int) "choices" 4 (Model.num_choices m);
  (match Model.validate m with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  let next = m.Model.next m.Model.reset [| 1; 0 |] in
  Alcotest.(check (array int)) "go moves requester" [| 1; 0 |] next

let test_choice_encoding () =
  let m = interlock_model () in
  for i = 0 to Model.num_choices m - 1 do
    let c = Model.choice_of_index m i in
    Alcotest.(check int) "roundtrip" i (Model.index_of_choice m c)
  done

(* State keys are mixed radix, variable 0 most significant, and dense:
   the interlock model's 3 x 2 states take keys 0..5.  A model keeps
   its whole-state entry point only while every key fits in an int. *)
let test_state_keys () =
  let m = interlock_model () in
  let keys = ref [] in
  for req = 0 to 2 do
    for srv = 0 to 1 do
      let k = Model.pack m [| req; srv |] in
      let back = Array.make 2 (-1) in
      Model.unpack m k back;
      Alcotest.(check (array int)) "unpack inverts pack" [| req; srv |] back;
      keys := k :: !keys
    done
  done;
  Alcotest.(check (list int)) "dense keys" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !keys);
  (match Model.pack m [| 3; 0 |] with
   | _ -> Alcotest.fail "a value outside its domain must not pack"
   | exception Invalid_argument _ -> ());
  let with_keys vars =
    let m =
      Model.create ~name:"wide" ~state_vars:vars ~choice_vars:[]
        ~reset:(List.map (fun _ -> 0) vars)
        ~next:(fun s _ -> s)
        ~successor_keys:(fun _ keys -> keys.(0) <- 0)
        ()
    in
    m.Model.successor_keys <> None
  in
  let bits n = List.init n (fun i -> Model.bool_var (Printf.sprintf "b%d" i)) in
  Alcotest.(check bool) "62 bits keep the entry point" true
    (with_keys (bits 62));
  Alcotest.(check bool) "63 bits drop it" false (with_keys (bits 63));
  Alcotest.(check bool) "3 x 2^61 drops it" false
    (with_keys (Model.var "t" [| "0"; "1"; "2" |] :: bits 61))

(* A valuation table hashes every entry: 1,000 valuations of 20 entries
   that agree on their first 10 spread over the buckets, where a
   polymorphic [Hashtbl], which hashes the first 10 only, puts them all
   in one.  A key and its proper prefix are distinct keys. *)
let test_valuation_table () =
  let valuation k =
    Array.init 20 (fun i -> if i < 10 then 1 else (k lsr (i - 10)) land 1)
  in
  let t = Model.Tbl.create 16 and poly = Hashtbl.create 16 in
  for k = 0 to 999 do
    Model.Tbl.add t (valuation k) k;
    Hashtbl.add poly (valuation k) k
  done;
  for k = 0 to 999 do
    Alcotest.(check (option int)) "found" (Some k)
      (Model.Tbl.find_opt t (valuation k))
  done;
  let longest = (Model.Tbl.stats t).Hashtbl.max_bucket_length in
  if longest > 16 then Alcotest.failf "a bucket holds %d keys" longest;
  Alcotest.(check int) "polymorphic Hashtbl: one bucket" 1000
    (Hashtbl.stats poly).Hashtbl.max_bucket_length;
  let p = Model.Tbl.create 4 in
  Model.Tbl.add p [| 1; 2; 3 |] 3;
  Alcotest.(check (option int)) "a prefix is not the key" None
    (Model.Tbl.find_opt p [| 1; 2 |]);
  Model.Tbl.add p [| 1; 2 |] 2;
  Model.Tbl.add p [||] 0;
  Alcotest.(check (list (option int))) "each its own key"
    [ Some 3; Some 2; Some 0; None ]
    (List.map (Model.Tbl.find_opt p)
       [ [| 1; 2; 3 |]; [| 1; 2 |]; [||]; [| 1 |] ])

let test_builder_double_assign () =
  let b = Model.Builder.create "bad" in
  let s = Model.Builder.state_bool b "s" () in
  let m =
    Model.Builder.build b ~step:(fun ctx ->
        Model.Builder.set ctx s 1;
        Model.Builder.set ctx s 0)
  in
  match m.Model.next m.Model.reset [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected double-assignment failure"

(* ---------------------------------------------------------------- *)
(* Latch inference                                                  *)
(* ---------------------------------------------------------------- *)

let latchy_src =
  {|
module latchy (en, d, q, full);
  input en, d;
  output q, full;
  reg q;
  reg full;
  always @(*) begin
    if (en) q = d;
  end
  always @(*) begin
    full = d | en;
  end
endmodule
|}

let test_latch_inference () =
  let elab = Elab.elaborate (Parser.parse latchy_src) in
  let latches = Latch.analyze elab in
  let names = List.map (fun l -> l.Latch.net.Elab.name) latches in
  Alcotest.(check (list string)) "only q latches" [ "q" ] names

let test_latch_complete_if () =
  let src =
    {|
module ok (en, d, q);
  input en, d;
  output q;
  reg q;
  always @(*) begin
    if (en) q = d;
    else q = 1'b0;
  end
endmodule
|}
  in
  let elab = Elab.elaborate (Parser.parse src) in
  Alcotest.(check int) "no latch" 0 (List.length (Latch.analyze elab))

let test_latch_case_without_default () =
  let src =
    {|
module c (s, q);
  input [1:0] s;
  output q;
  reg q;
  always @(*) begin
    case (s)
      2'b00: q = 1'b0;
      2'b01: q = 1'b1;
    endcase
  end
endmodule
|}
  in
  let elab = Elab.elaborate (Parser.parse src) in
  let latches = Latch.analyze elab in
  Alcotest.(check int) "case without default latches" 1 (List.length latches)

(* ---------------------------------------------------------------- *)
(* HDL -> FSM translation                                           *)
(* ---------------------------------------------------------------- *)

let handshake_src =
  {|
module handshake (clk, rst, req, ack);
  input clk, rst, req;
  output ack;
  reg [1:0] state; // avp state

  // avp clock clk
  // avp reset rst
  // avp free req

  // avp control_begin
  always @(posedge clk) begin
    if (rst)
      state <= 2'b00;
    else begin
      case (state)
        2'b00: if (req) state <= 2'b01;
        2'b01: state <= 2'b10;
        2'b10: if (!req) state <= 2'b00;
        default: state <= 2'b00;
      endcase
    end
  end
  // avp control_end

  assign ack = state == 2'b10;
endmodule
|}

let translate_handshake () =
  Translate.translate (Elab.elaborate (Parser.parse handshake_src))

let test_translate_basic () =
  let r = translate_handshake () in
  let m = r.Translate.model in
  Alcotest.(check int) "one state var" 1 (Array.length m.Model.state_vars);
  Alcotest.(check int) "one choice var" 1 (Array.length m.Model.choice_vars);
  Alcotest.(check (array int)) "reset state" [| 0 |] m.Model.reset;
  (* state 00 --req--> 01 *)
  Alcotest.(check (array int)) "req advances" [| 1 |]
    (m.Model.next [| 0 |] [| 1 |]);
  Alcotest.(check (array int)) "no req holds" [| 0 |]
    (m.Model.next [| 0 |] [| 0 |]);
  (* state 01 -> 10 under both choices *)
  Alcotest.(check (array int)) "unconditional" [| 2 |]
    (m.Model.next [| 1 |] [| 0 |]);
  Alcotest.(check (array int)) "unconditional'" [| 2 |]
    (m.Model.next [| 1 |] [| 1 |]);
  (* state 10: !req returns to idle *)
  Alcotest.(check (array int)) "release" [| 0 |]
    (m.Model.next [| 2 |] [| 0 |]);
  Alcotest.(check (array int)) "hold busy" [| 2 |]
    (m.Model.next [| 2 |] [| 1 |])

let test_translate_missing_annotations () =
  let src =
    {|
module nostate (clk, rst, d, q);
  input clk, rst, d;
  output q;
  reg q;
  always @(posedge clk) q <= d;
endmodule
|}
  in
  match Translate.translate (Elab.elaborate (Parser.parse src)) with
  | exception Translate.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_translate_unclosed_cone () =
  (* 'd' feeds the state register but is neither free nor tied. *)
  let src =
    {|
module unclosed (clk, rst, d, q);
  input clk, rst, d;
  output q;
  reg q; // avp state
  // avp clock clk
  // avp reset rst
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule
|}
  in
  match Translate.translate (Elab.elaborate (Parser.parse src)) with
  | exception Translate.Unsupported msg ->
    Alcotest.(check bool) "message names the net" true
      (contains_sub msg "free nor tied")
  | _ -> Alcotest.fail "expected Unsupported"

let test_translate_tie () =
  let src =
    {|
module tied (clk, rst, d, q);
  input clk, rst, d;
  output q;
  reg q; // avp state
  // avp clock clk
  // avp reset rst
  // avp tie d 1
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule
|}
  in
  let r = Translate.translate (Elab.elaborate (Parser.parse src)) in
  let m = r.Translate.model in
  Alcotest.(check int) "no choice vars" 0 (Array.length m.Model.choice_vars);
  Alcotest.(check (array int)) "tied input drives state to 1" [| 1 |]
    (m.Model.next [| 0 |] [||])

let test_translate_latch_requires_annotation () =
  let src =
    {|
module l (clk, rst, en, d, q);
  input clk, rst, en, d;
  output q;
  reg q; // avp state
  reg held; // not annotated
  // avp clock clk
  // avp reset rst
  // avp free en
  // avp free d
  always @(*) begin
    if (en) held = d;
  end
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= held;
  end
endmodule
|}
  in
  match Translate.translate (Elab.elaborate (Parser.parse src)) with
  | exception Translate.Unsupported msg ->
    Alcotest.(check bool) "mentions latch" true (contains_sub msg "latch")
  | _ -> Alcotest.fail "expected Unsupported for unannotated latch"

let test_murphi_emission () =
  let r = translate_handshake () in
  let text = Murphi.emit r in
  let contains needle = contains_sub text needle in
  Alcotest.(check bool) "has var section" true (contains "var");
  Alcotest.(check bool) "declares state" true (contains "state : 0..3");
  Alcotest.(check bool) "has choose section" true (contains "choose");
  Alcotest.(check bool) "declares choice" true (contains "req : 0..1");
  Alcotest.(check bool) "has startstate" true (contains "startstate");
  Alcotest.(check bool) "has rule" true (contains "rule \"clocked update\"")

(* The translated model must agree with direct HDL simulation on
   random walks. *)
let prop_translation_agrees_with_sim =
  QCheck.Test.make ~name:"translated model agrees with HDL simulation"
    ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) bool)
    (fun reqs ->
      let r = translate_handshake () in
      let m = r.Translate.model in
      (* Walk the model. *)
      let model_states =
        List.fold_left
          (fun (cur, acc) req ->
            let nxt = m.Model.next cur [| (if req then 1 else 0) |] in
            (nxt, nxt.(0) :: acc))
          (m.Model.reset, [])
          reqs
        |> snd |> List.rev
      in
      (* Walk the simulator. *)
      let sim =
        Sim.create (Elab.elaborate (Parser.parse handshake_src))
      in
      let open Avp_logic in
      Sim.set sim "rst" (Bv.of_int ~width:1 1);
      Sim.step sim "clk";
      Sim.set sim "rst" (Bv.of_int ~width:1 0);
      let sim_states =
        List.map
          (fun req ->
            Sim.set sim "req" (Bv.of_int ~width:1 (if req then 1 else 0));
            Sim.step sim "clk";
            Bv.to_int_exn (Sim.get sim "state"))
          reqs
      in
      model_states = sim_states)

let suite =
  [
    Alcotest.test_case "builder model" `Quick test_builder_model;
    Alcotest.test_case "choice encoding" `Quick test_choice_encoding;
    Alcotest.test_case "state keys" `Quick test_state_keys;
    Alcotest.test_case "valuation tables hash every entry" `Quick
      test_valuation_table;
    Alcotest.test_case "builder double assign" `Quick
      test_builder_double_assign;
    Alcotest.test_case "latch inference" `Quick test_latch_inference;
    Alcotest.test_case "complete if has no latch" `Quick
      test_latch_complete_if;
    Alcotest.test_case "case without default latches" `Quick
      test_latch_case_without_default;
    Alcotest.test_case "translate handshake" `Quick test_translate_basic;
    Alcotest.test_case "translate requires annotations" `Quick
      test_translate_missing_annotations;
    Alcotest.test_case "translate rejects unclosed cone" `Quick
      test_translate_unclosed_cone;
    Alcotest.test_case "translate with tied input" `Quick test_translate_tie;
    Alcotest.test_case "latch must be annotated" `Quick
      test_translate_latch_requires_annotation;
    Alcotest.test_case "murphi emission" `Quick test_murphi_emission;
    QCheck_alcotest.to_alcotest prop_translation_agrees_with_sim;
  ]

(* ---------------------------------------------------------------- *)
(* Murphi emission details                                          *)
(* ---------------------------------------------------------------- *)

let test_murphi_case_and_ops () =
  let src =
    {|
module mix (clk, rst, a, b, s);
  input clk, rst;
  input a; // avp free
  input b; // avp free
  reg [1:0] s; // avp state
  // avp clock clk
  // avp reset rst
  always @(posedge clk) begin
    if (rst) s <= 2'b00;
    else begin
      case ({a, b})
        2'b11: s <= s + 2'b01;
        2'b00: s <= 2'b00;
        default: s <= a ? 2'b10 : s;
      endcase
    end
  end
endmodule
|}
  in
  let r = Translate.translate (Elab.elaborate (Parser.parse src)) in
  let text = Murphi.emit r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains_sub text needle))
    [ "switch"; "endswitch"; "case"; "cat("; "cond"; "startstate";
      "s : 0..3" ]

(* ---------------------------------------------------------------- *)
(* Translated models on lanes vs the scalar step                    *)
(* ---------------------------------------------------------------- *)

module G = Avp_enum.State_graph

(* A copy of [m] with [next] only: no whole-state entry point, and
   [Model.create]'s default [next_into], which steps the scalar
   simulator once per choice. *)
let next_only (m : Model.t) =
  Model.create ~name:m.Model.model_name
    ~state_vars:(Array.to_list m.Model.state_vars)
    ~choice_vars:(Array.to_list m.Model.choice_vars)
    ~reset:(Array.to_list m.Model.reset)
    ~next:m.Model.next ()

(* The graph (or the exception) of enumerating [m], and the packed
   successor of every (state, choice) the enumeration evaluated, in
   call order: a state's keys from [successor_keys], or one [next_into]
   per choice.  A bounded run that stops at [max_states] still compares
   the transitions it made; a state whose evaluation raised is left
   out, since the keys of a raising call are never seen. *)
let logged_enumerate ?all_conditions ?max_states (m : Model.t) =
  let log = ref [] and partial = ref [] and npartial = ref 0 in
  let nchoices = Model.num_choices m in
  let logged =
    {
      m with
      Model.next_into =
        (fun state read dst ->
          m.Model.next_into state read dst;
          partial := Model.pack m dst :: !partial;
          incr npartial;
          if !npartial = nchoices then begin
            log := !partial @ !log;
            partial := [];
            npartial := 0
          end);
      successor_keys =
        Option.map
          (fun keys state dst ->
            keys state dst;
            for c = 0 to nchoices - 1 do
              log := dst.(c) :: !log
            done)
          m.Model.successor_keys;
    }
  in
  let outcome =
    match G.enumerate ?all_conditions ?max_states logged with
    | g -> Ok (g.G.states, g.G.adj)
    | exception e -> Error (Printexc.to_string e)
  in
  (outcome, List.rev !log)

(* [m] enumerates as its [next]-only copy: the same graph or exception,
   and every key [successor_keys] wrote equals [Model.pack] of the
   scalar [next] on the same (state, choice). *)
let check_same_enumeration ?all_conditions ?max_states what (m : Model.t) =
  if m.Model.successor_keys = None then
    Alcotest.failf "%s: no whole-state entry point" what;
  let lanes = logged_enumerate ?all_conditions ?max_states m
  and scalar = logged_enumerate ?all_conditions ?max_states (next_only m) in
  if fst lanes <> fst scalar then
    Alcotest.failf "%s: successor_keys and next enumerate different graphs"
      what;
  if snd lanes <> snd scalar then
    Alcotest.failf "%s: successor_keys and next make different transitions"
      what

(* The whole pp graph both ways, one edge per successor and every
   condition as its own edge, and each pp mutant that vets and
   translates up to 8 states: the whole graph of the small ones, the
   first expansions from reset of the others.  The bound keeps the
   scalar side near a second; unbounded it takes about a minute. *)
let test_lanes_enumerate_as_scalar () =
  let pp = (Avp_pp.Control_hdl.translate ()).Translate.model in
  check_same_enumeration "pp" pp;
  check_same_enumeration ~all_conditions:true "pp, all conditions" pp;
  let design = Avp_pp.Control_hdl.parse () in
  let translated =
    Avp_mutate.Gen.all design
    |> List.filter_map (fun (m : Avp_mutate.Gen.mutant) ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Stillborn _ | `Static _ -> None
        | `Ok d -> (
          match Translate.translate d with
          | r -> Some (m.Avp_mutate.Gen.id, r.Translate.model)
          | exception Translate.Unsupported _ -> None))
  in
  Alcotest.(check int) "pp mutants that vet and translate" 155
    (List.length translated);
  List.iter
    (fun (id, m) ->
      check_same_enumeration ~max_states:8 (Printf.sprintf "mutant %d" id) m)
    translated

(* Every reachable (state, choice) of pp: each state's keys from one
   [successor_keys] call against one [next_into] per choice, which on a
   translated model is [Model.create]'s default, the scalar [next].
   The states go in shuffled order, each state's choices in shuffled
   order, and the caller's state buffer is overwritten after each
   call, so keys that depend on the previous call's state (or on its
   buffer) fail. *)
let test_next_into_matches_next () =
  let m = (Avp_pp.Control_hdl.translate ()).Translate.model in
  let g = G.enumerate m in
  let rng = Random.State.make [| 22 |] in
  let shuffled n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let nchoices = Model.num_choices m in
  let choices = Array.init nchoices (Model.choice_of_index m) in
  let keys_of = Option.get m.Model.successor_keys in
  let nvars = Array.length m.Model.reset in
  let state = Array.make nvars 0 and dst = Array.make nvars 0 in
  let keys = Array.make nchoices (-1) in
  let checked = ref 0 in
  Array.iter
    (fun s ->
      Array.blit g.G.states.(s) 0 state 0 nvars;
      keys_of state keys;
      Array.fill state 0 nvars 0;
      Array.iter
        (fun c ->
          m.Model.next_into g.G.states.(s) (Array.get choices.(c)) dst;
          if keys.(c) <> Model.pack m dst then
            Alcotest.failf "state %d choice %d: key %d, next %a (key %d)" s c
              keys.(c) (Model.pp_state m) dst (Model.pack m dst);
          incr checked)
        (shuffled nchoices))
    (shuffled (G.num_states g));
  Alcotest.(check int) "every reachable (state, choice)" 123_904 !checked

(* Choice a = 2 drives q to X: the enumeration stops there with the
   scalar step's message, through [successor_keys] and [next_into] as
   through [next]. *)
let test_undefined_lane_message () =
  let src =
    {|
module xchoice (clk, rst, a, y);
  input clk, rst;
  input [1:0] a;
  output [1:0] y;
  reg [1:0] q; // avp state
  // avp clock clk
  // avp reset rst
  // avp free a
  always @(posedge clk) begin
    if (rst) q <= 2'b00;
    else if (a == 2'b10) q <= 2'bx0;
    else q <= a;
  end
  assign y = q;
endmodule
|}
  in
  let m = (Translate.translate (Elab.elaborate (Parser.parse src))).Translate.model in
  let choices = Array.init (Model.num_choices m) (Model.choice_of_index m) in
  let first_failure step =
    let rec go c =
      if c = Array.length choices then None
      else
        match step choices.(c) with
        | () -> go (c + 1)
        | exception Translate.Unsupported msg -> Some (c, msg)
    in
    go 0
  in
  let dst = Array.make 1 0 in
  let expected = Some (2, "state net q is undefined (x0) after step") in
  let pair = Alcotest.(option (pair int string)) in
  Alcotest.check pair "through next" expected
    (first_failure (fun cv -> ignore (m.Model.next m.Model.reset cv)));
  Alcotest.check pair "through next_into" expected
    (first_failure (fun cv -> m.Model.next_into m.Model.reset (Array.get cv) dst));
  let keys = Array.make (Array.length choices) 0 in
  Alcotest.(check (option string)) "through successor_keys"
    (Option.map snd expected)
    (match Option.get m.Model.successor_keys m.Model.reset keys with
     | () -> None
     | exception Translate.Unsupported msg -> Some msg);
  match G.enumerate m with
  | _ -> Alcotest.fail "enumeration of an X successor must raise"
  | exception Translate.Unsupported msg ->
    Alcotest.(check string) "enumeration" (snd (Option.get expected)) msg

(* A ternary with unequal arm widths: the bit-sliced kernel rejects the
   design, and its choices take the scalar step. *)
let test_sliced_rejected_design () =
  let src =
    {|
module uneq (clk, rst, a, y);
  input clk, rst;
  input a;
  output [1:0] y;
  reg [1:0] q; // avp state
  wire [1:0] n;
  // avp clock clk
  // avp reset rst
  // avp free a
  assign n = a ? q + 2'b01 : 1'b0;
  always @(posedge clk) begin
    if (rst) q <= 2'b00;
    else q <= n;
  end
  assign y = q;
endmodule
|}
  in
  let d = Elab.elaborate (Parser.parse src) in
  Alcotest.(check bool) "Sliced.create rejects the design" true
    (Sliced.create ~lanes:2 d = None);
  let m = (Translate.translate d).Translate.model in
  check_same_enumeration "uneq" m;
  check_same_enumeration ~all_conditions:true "uneq, all conditions" m;
  Alcotest.(check int) "states" 4 (G.num_states (G.enumerate m))

(* [held] latched from [d] while [en], [q <= held]: the latch's stored
   value is state, poked before every step, so its writer must re-run
   after the poke — otherwise, while the latch is transparent, the
   successor depends on which choices the previous call poked. *)
let latch_src =
  {|
module lat (clk, rst, en, d, q);
  input clk, rst, en, d;
  output q;
  reg q;    // avp state
  reg held; // avp state
  // avp clock clk
  // avp reset rst
  // avp free en
  // avp free d
  always @(*) begin
    if (rst) held = 1'b0;
    else if (en) held = d;
  end
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= held;
  end
endmodule
|}

let latch_model () =
  (Translate.translate (Elab.elaborate (Parser.parse latch_src))).Translate.model

(* A valuation of [m]'s variables [vars] by name. *)
let valuation (vars : Model.var array) named =
  Array.map (fun (v : Model.var) -> List.assoc v.Model.name named) vars

let test_latch_successor () =
  let m = latch_model () in
  let state = valuation m.Model.state_vars in
  let s0 = state [ ("q", 0); ("held", 0) ]
  and s1 = state [ ("q", 1); ("held", 1) ] in
  let c = valuation m.Model.choice_vars [ ("en", 1); ("d", 1) ] in
  let show st = Format.asprintf "%a" (Model.pp_state m) st in
  let first = m.Model.next s0 c in
  Alcotest.(check string) "transparent latch passes d" (show (state [ ("q", 1); ("held", 1) ]))
    (show first);
  ignore (m.Model.next s1 c);
  Alcotest.(check string) "same successor after a call on another state"
    (show first) (show (m.Model.next s0 c));
  (* The same on the lanes, whose kernel keeps its nets between calls. *)
  let keys_of = Option.get m.Model.successor_keys in
  let keys state =
    let k = Array.make (Model.num_choices m) 0 in
    keys_of state k;
    k
  in
  let from_s0 = keys s0 in
  Alcotest.(check int) "lanes: transparent latch passes d" (Model.pack m first)
    from_s0.(Model.index_of_choice m c);
  ignore (keys s1);
  Alcotest.(check (array int)) "lanes: same keys after a call on another state"
    from_s0 (keys s0)

let test_latch_lanes () =
  let m = latch_model () in
  check_same_enumeration "latch" m;
  check_same_enumeration ~all_conditions:true "latch, all conditions" m

let suite =
  suite
  @ [ Alcotest.test_case "murphi case and operators" `Quick
        test_murphi_case_and_ops ]
    @ [
        Alcotest.test_case "lanes enumerate as the scalar step" `Quick
          test_lanes_enumerate_as_scalar;
        Alcotest.test_case "next_into = next on every (state, choice)" `Quick
          test_next_into_matches_next;
        Alcotest.test_case "undefined lane: scalar message" `Quick
          test_undefined_lane_message;
        Alcotest.test_case "sliced-rejected design enumerates" `Quick
          test_sliced_rejected_design;
        Alcotest.test_case "latch state: successor independent of the last call"
          `Quick test_latch_successor;
        Alcotest.test_case "latch state: lanes enumerate as the scalar step"
          `Quick test_latch_lanes;
      ]
