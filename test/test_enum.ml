open Avp_fsm
open Avp_enum
open Avp_hdl

(* Handshake FSM as a hand-built model: 3 reachable states. *)
let handshake_model () =
  let b = Model.Builder.create "handshake" in
  let st = Model.Builder.state b "state" [| "idle"; "req"; "ack" |] in
  let req = Model.Builder.choice_bool b "req" in
  Model.Builder.build b ~step:(fun ctx ->
      let open Model.Builder in
      match get ctx st with
      | 0 -> if chosen ctx req = 1 then set ctx st 1
      | 1 -> set ctx st 2
      | 2 -> if chosen ctx req = 0 then set ctx st 0
      | _ -> assert false)

let test_enumerate_handshake () =
  let g = State_graph.enumerate (handshake_model ()) in
  Alcotest.(check int) "states" 3 (State_graph.num_states g);
  (* idle: ->idle, ->req; req: ->ack (one recorded); ack: ->idle,
     ->ack *)
  Alcotest.(check int) "edges (first condition)" 5 (State_graph.num_edges g);
  Alcotest.(check int) "reset is state 0" 0 (State_graph.reset_id g)

let test_enumerate_all_conditions () =
  let g = State_graph.enumerate ~all_conditions:true (handshake_model ()) in
  Alcotest.(check int) "states unchanged" 3 (State_graph.num_states g);
  Alcotest.(check int) "edges include parallel conditions" 6
    (State_graph.num_edges g);
  Alcotest.(check bool) "deterministic image" true
    (State_graph.is_deterministic_image g)

let test_interlock_prunes_product () =
  (* The mutual stalling of FSMs prevents the exponential explosion
     (paper, Section 3.2): the requester cannot be in 'wait' while the
     server is busy serving it, etc. *)
  let b = Model.Builder.create "interlock" in
  let a = Model.Builder.state b "a" [| "idle"; "go"; "done" |] in
  let c = Model.Builder.state b "c" [| "idle"; "busy" |] in
  let start = Model.Builder.choice_bool b "start" in
  let m =
    Model.Builder.build b ~step:(fun ctx ->
        let open Model.Builder in
        (match get ctx a with
         | 0 -> if chosen ctx start = 1 && get ctx c = 0 then set ctx a 1
         | 1 -> set ctx a 2
         | 2 -> set ctx a 0
         | _ -> assert false);
        match get ctx c with
        | 0 -> if get ctx a = 1 then set ctx c 1
        | 1 -> if get ctx a = 0 then set ctx c 0
        | _ -> assert false)
  in
  let g = State_graph.enumerate m in
  Alcotest.(check bool) "fewer states than the product bound" true
    (float_of_int (State_graph.num_states g)
     < Model.num_states_upper_bound m)

let test_max_states () =
  (* A 16-bit counter exceeds a 100-state bound. *)
  let b = Model.Builder.create "counter" in
  let values = Array.init 65536 string_of_int in
  let cnt = Model.Builder.state b "cnt" values in
  let m =
    Model.Builder.build b ~step:(fun ctx ->
        let open Model.Builder in
        set ctx cnt ((get ctx cnt + 1) mod 65536))
  in
  match State_graph.enumerate ~max_states:100 m with
  | exception State_graph.Too_many_states 100 -> ()
  | _ -> Alcotest.fail "expected Too_many_states"

let test_edge_offsets () =
  let g = State_graph.enumerate (handshake_model ()) in
  let offsets = State_graph.edge_offsets g in
  Alcotest.(check int) "last offset is edge count"
    (State_graph.num_edges g)
    offsets.(State_graph.num_states g);
  Alcotest.(check bool) "monotone" true
    (let ok = ref true in
     for i = 0 to Array.length offsets - 2 do
       if offsets.(i) > offsets.(i + 1) then ok := false
     done;
     !ok)

let test_find_state () =
  let g = State_graph.enumerate (handshake_model ()) in
  Alcotest.(check (option int)) "reset found" (Some 0)
    (State_graph.find_state g [| 0 |]);
  Alcotest.(check (option int)) "unreachable absent" None
    (State_graph.find_state g [| 2 |] |> fun r ->
     if r = None then None else State_graph.find_state g [| 5 |])

(* Enumerating a translated HDL design agrees with enumerating an
   equivalent hand model. *)
let test_hdl_and_hand_model_agree () =
  let src =
    {|
module handshake (clk, rst, req, ack);
  input clk, rst, req;
  output ack;
  reg [1:0] state; // avp state
  // avp clock clk
  // avp reset rst
  // avp free req
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
  assign ack = state == 2'b10;
endmodule
|}
  in
  let r = Translate.translate (Elab.elaborate (Parser.parse src)) in
  let g_hdl = State_graph.enumerate r.Translate.model in
  let g_hand = State_graph.enumerate (handshake_model ()) in
  Alcotest.(check int) "same state count"
    (State_graph.num_states g_hand)
    (State_graph.num_states g_hdl);
  Alcotest.(check int) "same edge count"
    (State_graph.num_edges g_hand)
    (State_graph.num_edges g_hdl)

(* Property: enumeration is closed — every recorded successor is a
   valid state id, and simulating any recorded edge's condition from
   its source state lands on its destination. *)
let prop_edges_are_consistent =
  QCheck.Test.make ~name:"recorded edges match the transition function"
    ~count:20 QCheck.unit
    (fun () ->
      let m = handshake_model () in
      let g = State_graph.enumerate m in
      let ok = ref true in
      Array.iteri
        (fun src out ->
          Array.iter
            (fun (dst, ci) ->
              let choices = Model.choice_of_index m ci in
              let computed = m.Model.next g.State_graph.states.(src) choices in
              match State_graph.find_state g computed with
              | Some id when id = dst -> ()
              | _ -> ok := false)
            out)
        g.State_graph.adj;
      !ok)

(* ------------------------------------------------------------------ *)
(* The per-choice enumerator, kept as the oracle                       *)
(* ------------------------------------------------------------------ *)

(* BFS in id order that calls [next] on every [choice_of_index], in
   index order, and interns each successor at its first discovery:
   the enumerator before states were expanded as decision trees.
   Returns the states and the adjacency with every condition. *)
let reference_enumerate (m : Model.t) =
  let ids = Hashtbl.create 256 and vals = Hashtbl.create 256 in
  let intern v =
    match Hashtbl.find_opt ids v with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids v id;
      Hashtbl.add vals id v;
      id
  in
  ignore (intern m.Model.reset);
  let adj = ref [] and src = ref 0 in
  while !src < Hashtbl.length ids do
    let cur = Hashtbl.find vals !src in
    adj :=
      Array.init (Model.num_choices m) (fun ci ->
          (intern (m.Model.next cur (Model.choice_of_index m ci)), ci))
      :: !adj;
    incr src
  done;
  (Array.init (Hashtbl.length ids) (Hashtbl.find vals),
   Array.of_list (List.rev !adj))

(* First-condition mode: the lowest choice index per successor. *)
let first_conditions adj =
  Array.map
    (fun out ->
      let seen = Hashtbl.create 16 in
      Array.of_list
        (List.filter
           (fun (dst, _) ->
             (not (Hashtbl.mem seen dst)) && (Hashtbl.add seen dst (); true))
           (Array.to_list out)))
    adj

(* Both modes, sequential and parallel from the first state on. *)
let matches_reference m =
  let states, all_adj = reference_enumerate m in
  List.for_all
    (fun all_conditions ->
      let adj = if all_conditions then all_adj else first_conditions all_adj in
      let edges = Array.fold_left (fun n out -> n + Array.length out) 0 adj in
      List.for_all
        (fun (domains, parallel_threshold) ->
          let g =
            State_graph.enumerate ~all_conditions ~domains ~parallel_threshold
              m
          in
          g.State_graph.states = states && g.State_graph.adj = adj
          && State_graph.num_edges g = edges)
        [ (1, max_int); (2, 1) ])
    [ false; true ]

(* A random Builder machine.  Each state reads a state-dependent
   subset of the choices, starting from a state-dependent variable, so
   depth-first order differs from index order; some paths stop reading
   early, so the tree's leaves lie at different depths. *)
type spec = { scards : int array; ccards : int array; salt : int }

let arb_spec =
  let open QCheck.Gen in
  let gen =
    map3
      (fun scards ccards salt ->
        { scards = Array.of_list scards; ccards = Array.of_list ccards; salt })
      (list_size (int_range 2 4) (int_range 2 5))
      (list_size (int_range 1 4) (int_range 2 4))
      (int_bound 1_000_000)
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  QCheck.make gen ~print:(fun s ->
      Printf.sprintf "states [%s] choices [%s] salt %d" (ints s.scards)
        (ints s.ccards) s.salt)

let random_model spec =
  let open Model.Builder in
  let b = create "random" in
  let values n = Array.init n string_of_int in
  let sv =
    Array.mapi (fun i c -> state b (Printf.sprintf "s%d" i) (values c))
      spec.scards
  in
  let cv =
    Array.mapi (fun i c -> choice b (Printf.sprintf "c%d" i) (values c))
      spec.ccards
  in
  let ns = Array.length sv and nc = Array.length cv in
  build b ~step:(fun ctx ->
      let h =
        Array.fold_left
          (fun acc v -> ((acc * 31) + get ctx v) land 0xffffff)
          spec.salt sv
      in
      let assigned = Array.make ns false in
      let rec go k acc =
        if k < nc then begin
          let c = (h + k) mod nc in
          if (h lsr (2 * k)) land 3 = 0 then go (k + 1) acc
          else begin
            let v = chosen ctx cv.(c) in
            let t = ((h / 7) + c + v) mod ns in
            if not assigned.(t) then begin
              assigned.(t) <- true;
              set ctx sv.(t) ((get ctx sv.(t) + v + acc) mod spec.scards.(t))
            end;
            if not (v = 0 && (h lsr (k + 9)) land 1 = 1) then
              go (k + 1) (acc + v)
          end
        end
      in
      go 0 0)

let prop_matches_reference =
  QCheck.Test.make ~name:"decision trees match the per-choice enumerator"
    ~count:100 arb_spec (fun spec -> matches_reference (random_model spec))

let test_control_matches_reference () =
  let open Avp_pp.Control_model in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) name true (matches_reference (model cfg)))
    [ ("tiny", tiny); ("default", default);
      ("default with branches", { default with with_branches = true }) ]

(* Transition evaluations, counted the way perfbench counts them. *)
let evaluations (m : Model.t) =
  let n = ref 0 in
  let counted =
    { m with Model.next_into = (fun s c d -> incr n; m.Model.next_into s c d) }
  in
  ignore (State_graph.enumerate ~domains:1 counted);
  !n

let test_evaluation_counts () =
  (* idle and ack read [req]: two leaves each; req reads nothing. *)
  Alcotest.(check int) "handshake: one per leaf" 5
    (evaluations (handshake_model ()));
  Alcotest.(check int) "pp-model-medium: choices read where they matter"
    68_052
    (evaluations Avp_pp.Control_model.(model medium));
  (* An HDL step needs all its inputs: 121 states x 1,024 choices. *)
  Alcotest.(check int) "translated pp: every choice" 123_904
    (evaluations (Avp_pp.Control_hdl.translate ()).Translate.model)

let suite =
  [
    Alcotest.test_case "enumerate handshake" `Quick test_enumerate_handshake;
    Alcotest.test_case "all conditions mode" `Quick
      test_enumerate_all_conditions;
    Alcotest.test_case "interlock prunes product" `Quick
      test_interlock_prunes_product;
    Alcotest.test_case "max states bound" `Quick test_max_states;
    Alcotest.test_case "edge offsets" `Quick test_edge_offsets;
    Alcotest.test_case "find state" `Quick test_find_state;
    Alcotest.test_case "hdl and hand model agree" `Quick
      test_hdl_and_hand_model_agree;
    QCheck_alcotest.to_alcotest prop_edges_are_consistent;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "control models match the reference" `Quick
      test_control_matches_reference;
    Alcotest.test_case "evaluation counts" `Quick test_evaluation_counts;
  ]
