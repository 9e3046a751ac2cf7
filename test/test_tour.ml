open Avp_fsm
open Avp_enum
open Avp_tour

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

(* A model with reset-only edges: from reset you commit to a mode and
   can never return, forcing one trace per mode (the paper's Table 3.3
   lower bound on trace count). *)
let forked_model modes =
  let b = Model.Builder.create "forked" in
  let values = Array.append [| "reset" |] (Array.init modes (Printf.sprintf "mode%d")) in
  let st = Model.Builder.state b "st" values in
  let phase = Model.Builder.state_bool b "phase" () in
  let pick =
    Model.Builder.choice b "pick" (Array.init modes string_of_int)
  in
  Model.Builder.build b ~step:(fun ctx ->
      let open Model.Builder in
      if get ctx st = 0 then set ctx st (1 + chosen ctx pick)
      else set ctx phase (1 - get ctx phase))

(* ---------------------------------------------------------------- *)
(* Digraph utilities                                                *)
(* ---------------------------------------------------------------- *)

let diamond : Digraph.adj =
  [| [| (1, 0); (2, 1) |]; [| (3, 0) |]; [| (3, 0) |]; [| (0, 0) |] |]

let test_digraph_basics () =
  Alcotest.(check int) "edges" 5 (Digraph.num_edges diamond);
  Alcotest.(check (array int)) "in degrees" [| 1; 1; 1; 2 |]
    (Digraph.in_degrees diamond);
  Alcotest.(check (array int)) "out degrees" [| 2; 1; 1; 1 |]
    (Digraph.out_degrees diamond);
  Alcotest.(check bool) "strongly connected" true
    (Digraph.is_strongly_connected diamond);
  let r = Digraph.reachable diamond 1 in
  Alcotest.(check bool) "all reachable from 1" true (Array.for_all Fun.id r)

let test_digraph_sccs () =
  (* 0 -> 1 -> 2 -> 1, 0 alone *)
  let adj : Digraph.adj = [| [| (1, 0) |]; [| (2, 0) |]; [| (1, 0) |] |] in
  let comp = Digraph.sccs adj in
  Alcotest.(check bool) "1 and 2 together" true (comp.(1) = comp.(2));
  Alcotest.(check bool) "0 separate" true (comp.(0) <> comp.(1));
  Alcotest.(check bool) "not strongly connected" false
    (Digraph.is_strongly_connected adj)

let test_shortest_path () =
  match Digraph.shortest_path diamond ~src:1 ~accept:(fun s -> s = 2) with
  | Some path ->
    Alcotest.(check int) "length" 3 (List.length path);
    (match path with
     | (s0, _, _) :: _ -> Alcotest.(check int) "starts at src" 1 s0
     | [] -> Alcotest.fail "empty")
  | None -> Alcotest.fail "no path"

let test_shortest_path_none () =
  let adj : Digraph.adj = [| [| (1, 0) |]; [||] |] in
  Alcotest.(check bool) "unreachable accept" true
    (Digraph.shortest_path adj ~src:1 ~accept:(fun s -> s = 0) = None)

(* ---------------------------------------------------------------- *)
(* Min-cost flow                                                    *)
(* ---------------------------------------------------------------- *)

let test_mcmf_simple () =
  let net = Flow.create 4 in
  (* Two parallel routes 0->3: via 1 (cost 1+1) and via 2 (cost 3+3),
     each capacity 1. *)
  let _ = Flow.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1 in
  let _ = Flow.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:1 in
  let cheap2 = Flow.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:3 in
  let _ = Flow.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:3 in
  let flow, cost = Flow.min_cost_flow net ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow" 2 flow;
  Alcotest.(check int) "min cost" 8 cost;
  Alcotest.(check int) "expensive edge used" 1 (Flow.flow_on net cheap2)

let test_mcmf_prefers_cheap () =
  let net = Flow.create 3 in
  let cheap = Flow.add_edge net ~src:0 ~dst:2 ~cap:5 ~cost:1 in
  let exp = Flow.add_edge net ~src:0 ~dst:1 ~cap:5 ~cost:10 in
  let _ = Flow.add_edge net ~src:1 ~dst:2 ~cap:5 ~cost:10 in
  let flow, cost = Flow.min_cost_flow net ~source:0 ~sink:2 in
  Alcotest.(check int) "flow saturates both" 10 flow;
  Alcotest.(check int) "cheap first" 5 (Flow.flow_on net cheap);
  Alcotest.(check int) "expensive second" 5 (Flow.flow_on net exp);
  Alcotest.(check int) "cost" (5 + 100) cost

(* ---------------------------------------------------------------- *)
(* Chinese postman                                                  *)
(* ---------------------------------------------------------------- *)

let test_euler_circuit () =
  (* 0->1->2->0 plus 0->2->1->0 makes every degree balanced. *)
  let adj : Digraph.adj =
    [| [| (1, 0); (2, 1) |]; [| (2, 0); (0, 1) |]; [| (0, 0); (1, 1) |] |]
  in
  match Chinese_postman.euler_circuit adj ~start:0 with
  | Some tour ->
    Alcotest.(check int) "uses every edge once" 6
      (Chinese_postman.tour_length tour);
    Alcotest.(check bool) "closed" true
      (Chinese_postman.is_closed_walk tour ~start:0);
    Alcotest.(check bool) "covers" true
      (Chinese_postman.covers_all_edges adj tour)
  | None -> Alcotest.fail "expected a circuit"

let test_euler_rejects_unbalanced () =
  Alcotest.(check bool) "diamond is not eulerian" true
    (Chinese_postman.euler_circuit diamond ~start:0 = None)

let test_cpp_diamond () =
  let tour = Chinese_postman.solve diamond ~start:0 in
  Alcotest.(check bool) "closed" true
    (Chinese_postman.is_closed_walk tour ~start:0);
  Alcotest.(check bool) "covers all" true
    (Chinese_postman.covers_all_edges diamond tour);
  (* 5 edges; node 3 has one surplus arrival and node 0 one surplus
     departure, and the cheapest fix duplicates the single edge 3->0,
     so the optimum is 6. *)
  Alcotest.(check int) "optimal length" 6
    (Chinese_postman.tour_length tour)

let test_cpp_rejects_disconnected () =
  let adj : Digraph.adj = [| [| (1, 0) |]; [||] |] in
  match Chinese_postman.solve adj ~start:0 with
  | exception Chinese_postman.Not_strongly_connected -> ()
  | _ -> Alcotest.fail "expected Not_strongly_connected"

let prop_cpp_random_graphs =
  (* Random strongly-connected graphs: build a random ring plus random
     chords, then check the tour is a closed covering walk no shorter
     than the edge count. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 12 in
      let* chords = list_size (int_range 0 20) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
      return (n, chords))
  in
  QCheck.Test.make ~name:"chinese postman on random strong digraphs"
    ~count:60
    (QCheck.make gen)
    (fun (n, chords) ->
      let edges = ref [] in
      for i = 0 to n - 1 do
        edges := (i, (i + 1) mod n) :: !edges
      done;
      List.iter (fun (a, b) -> edges := (a, b) :: !edges) chords;
      let adj =
        Array.init n (fun u ->
            !edges
            |> List.filter (fun (a, _) -> a = u)
            |> List.mapi (fun i (_, b) -> (b, i))
            |> Array.of_list)
      in
      let tour = Chinese_postman.solve adj ~start:0 in
      Chinese_postman.is_closed_walk tour ~start:0
      && Chinese_postman.covers_all_edges adj tour
      && Chinese_postman.tour_length tour >= Digraph.num_edges adj)

(* ---------------------------------------------------------------- *)
(* The paper's tour generator                                       *)
(* ---------------------------------------------------------------- *)

let test_tour_covers_handshake () =
  let g = State_graph.enumerate (handshake_model ()) in
  let t = Tour_gen.generate g in
  Alcotest.(check bool) "valid" true (Tour_gen.is_valid g t);
  Alcotest.(check bool) "covers" true (Tour_gen.covers_all_edges g t);
  Alcotest.(check int) "traversals >= edges" (State_graph.num_edges g)
    (min t.Tour_gen.stats.Tour_gen.edge_traversals
       (State_graph.num_edges g))

let test_tour_trace_count_matches_reset_degree () =
  (* Reset-only edges force exactly one trace per reset out-edge. *)
  let modes = 5 in
  let g = State_graph.enumerate (forked_model modes) in
  Alcotest.(check int) "reset out-degree" modes (State_graph.out_degree g 0);
  let t = Tour_gen.generate g in
  Alcotest.(check int) "one trace per mode" modes
    t.Tour_gen.stats.Tour_gen.num_traces;
  let t_lim = Tour_gen.generate ~instr_limit:3 g in
  Alcotest.(check int) "same trace count with limit" modes
    t_lim.Tour_gen.stats.Tour_gen.num_traces

let test_tour_instr_limit_bounds_traces () =
  let g = State_graph.enumerate (handshake_model ()) in
  let t = Tour_gen.generate ~instr_limit:2 g in
  Alcotest.(check bool) "covers with limit" true
    (Tour_gen.covers_all_edges g t);
  Array.iter
    (fun trace ->
      (* A trace may exceed the limit by at most the final DFS edge or
         explore path; with weight-1 edges it stops at the first check
         past the limit. *)
      Alcotest.(check bool) "trace bounded" true (Array.length trace <= 2 + 3))
    t.Tour_gen.traces

let test_tour_instruction_weights () =
  let g = State_graph.enumerate (handshake_model ()) in
  let t =
    Tour_gen.generate
      ~instructions_of_edge:(fun ~src:_ ~choice:_ -> 2)
      g
  in
  Alcotest.(check int) "weighted instructions"
    (2 * t.Tour_gen.stats.Tour_gen.edge_traversals)
    t.Tour_gen.stats.Tour_gen.instructions

let prop_tour_covers_random_models =
  let gen = QCheck.Gen.int_range 2 6 in
  QCheck.Test.make ~name:"tours cover random ring-with-choices models"
    ~count:40 (QCheck.make gen)
    (fun k ->
      let b = Model.Builder.create "rand" in
      let st = Model.Builder.state b "st" (Array.init k string_of_int) in
      let c = Model.Builder.choice b "c" [| "a"; "b"; "c" |] in
      let m =
        Model.Builder.build b ~step:(fun ctx ->
            let open Model.Builder in
            let cur = get ctx st in
            let ch = chosen ctx c in
            set ctx st ((cur + ch + 1) mod k))
      in
      let g = State_graph.enumerate m in
      let t = Tour_gen.generate g in
      Tour_gen.is_valid g t && Tour_gen.covers_all_edges g t)

let prop_tour_with_limit_still_covers =
  let gen = QCheck.Gen.(pair (int_range 2 6) (int_range 1 10)) in
  QCheck.Test.make ~name:"instruction limit preserves coverage" ~count:40
    (QCheck.make gen)
    (fun (k, limit) ->
      let g = State_graph.enumerate (forked_model k) in
      let t = Tour_gen.generate ~instr_limit:limit g in
      Tour_gen.is_valid g t && Tour_gen.covers_all_edges g t)

(* The explore phase as it first ran: a fresh breadth-first search from
   the current state to the nearest state with an untraversed out-edge,
   scanning each state's arcs in position order.  [Tour_gen.generate]
   must return these traces and stats step for step. *)
let reference_generate ?instr_limit
    ?(instructions_of_edge = fun ~src:_ ~choice:_ -> 1) (g : State_graph.t) =
  let adj = g.State_graph.adj in
  let n = Array.length adj in
  let offsets = State_graph.edge_offsets g in
  let traversed = Array.make offsets.(n) false in
  let untraversed_left = ref offsets.(n) in
  let untraversed_count = Array.map Array.length adj in
  let explore_path src =
    let parent = Array.make n None in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.add src queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iteri
        (fun pos (v, _) ->
          if !found = None && not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- Some (u, pos);
            if untraversed_count.(v) > 0 then found := Some v
            else Queue.add v queue
          end)
        adj.(u)
    done;
    let rec build v acc =
      match parent.(v) with
      | Some (u, pos) when v <> src -> build u ((u, pos) :: acc)
      | _ -> acc
    in
    Option.map (fun v -> build v []) !found
  in
  let traces = ref [] in
  let instructions = ref 0 in
  let longest_instr = ref 0 in
  let limit_hits = ref 0 in
  while !untraversed_left > 0 do
    let steps = ref [] in
    let trace_instr = ref 0 in
    let fresh_in_trace = ref 0 in
    let state = ref 0 in
    let take ~fresh (src, pos) =
      let dst, choice = adj.(src).(pos) in
      if fresh then begin
        traversed.(offsets.(src) + pos) <- true;
        untraversed_count.(src) <- untraversed_count.(src) - 1;
        decr untraversed_left;
        incr fresh_in_trace
      end;
      steps := { Tour_gen.src; dst; choice; fresh } :: !steps;
      trace_instr := !trace_instr + instructions_of_edge ~src ~choice;
      state := dst
    in
    let over_limit () =
      match instr_limit with
      | Some l -> !trace_instr >= l && !fresh_in_trace > 0
      | None -> false
    in
    let continue_trace = ref true in
    while !continue_trace do
      while untraversed_count.(!state) > 0 && not (over_limit ()) do
        let s = !state in
        let pos = ref 0 in
        while traversed.(offsets.(s) + !pos) do
          incr pos
        done;
        take ~fresh:true (s, !pos)
      done;
      if over_limit () then begin
        incr limit_hits;
        continue_trace := false
      end
      else
        match explore_path !state with
        | None -> continue_trace := false
        | Some path -> List.iter (take ~fresh:false) path
    done;
    if !steps = [] then untraversed_left := 0
    else begin
      traces := Array.of_list (List.rev !steps) :: !traces;
      instructions := !instructions + !trace_instr;
      longest_instr := max !longest_instr !trace_instr
    end
  done;
  let traces = Array.of_list (List.rev !traces) in
  let t = Tour_gen.of_traces traces in
  {
    t with
    Tour_gen.stats =
      {
        t.Tour_gen.stats with
        Tour_gen.instructions = !instructions;
        longest_trace_instructions = !longest_instr;
        traces_hitting_limit = !limit_hits;
      };
  }

let same_tours (a : Tour_gen.t) (b : Tour_gen.t) =
  let untimed (t : Tour_gen.t) =
    { t.Tour_gen.stats with Tour_gen.gen_time_s = 0. }
  in
  a.Tour_gen.traces = b.Tour_gen.traces && untimed a = untimed b

(* A state table over [states] states and one choice variable with
   [choices] values: every fifth state on average is absorbing, and the
   rest step to random successors, self-loops included. *)
let table_model ~states ~choices seed =
  let rng = Random.State.make [| seed |] in
  let table =
    Array.init states (fun s ->
        if Random.State.int rng 5 = 0 then Array.make choices s
        else Array.init choices (fun _ -> Random.State.int rng states))
  in
  let b = Model.Builder.create "table" in
  let st = Model.Builder.state b "st" (Array.init states string_of_int) in
  let c = Model.Builder.choice b "c" (Array.init choices string_of_int) in
  Model.Builder.build b ~step:(fun ctx ->
      let open Model.Builder in
      set ctx st table.(get ctx st).(chosen ctx c))

let prop_tour_matches_reference =
  let gen =
    QCheck.Gen.(
      let* states = int_range 2 40 in
      let* choices = int_range 1 6 in
      let* seed = int_bound 1_000_000 in
      let* all_conditions = bool in
      let* instr_limit = opt (int_range 1 30) in
      let* weights = array_size (return (40 * 6)) (int_bound 3) in
      return (states, choices, seed, all_conditions, instr_limit, weights))
  in
  let print (states, choices, seed, all_conditions, instr_limit, _) =
    Printf.sprintf "states=%d choices=%d seed=%d all_conditions=%b limit=%s"
      states choices seed all_conditions
      (Option.fold ~none:"none" ~some:string_of_int instr_limit)
  in
  QCheck.Test.make ~name:"tours match the per-step BFS reference" ~count:300
    (QCheck.make ~print gen)
    (fun (states, choices, seed, all_conditions, instr_limit, weights) ->
      let g =
        State_graph.enumerate ~all_conditions
          (table_model ~states ~choices seed)
      in
      let instructions_of_edge ~src ~choice = weights.((src * 6) + choice) in
      same_tours
        (Tour_gen.generate ?instr_limit ~instructions_of_edge g)
        (reference_generate ?instr_limit ~instructions_of_edge g))

let test_tour_matches_reference_pp_model () =
  let cfg = Avp_pp.Control_model.default in
  let m = Avp_pp.Control_model.model cfg in
  let g = State_graph.enumerate m in
  let instructions_of_edge ~src ~choice =
    Avp_pp.Control_model.instructions_of_edge cfg
      ~src:g.State_graph.states.(src)
      ~choice:(Model.choice_of_index m choice)
  in
  List.iter
    (fun instr_limit ->
      Alcotest.(check bool) "same traces and stats" true
        (same_tours
           (Tour_gen.generate ?instr_limit ~instructions_of_edge g)
           (reference_generate ?instr_limit ~instructions_of_edge g)))
    [ None; Some 500; Some 10_000 ]

let test_tour_weighs_each_arc_once () =
  let check name g =
    let calls = ref 0 in
    let t =
      Tour_gen.generate
        ~instructions_of_edge:(fun ~src:_ ~choice:_ ->
          incr calls;
          1)
        g
    in
    Alcotest.(check bool) (name ^ " re-walks arcs") true
      (t.Tour_gen.stats.Tour_gen.edge_traversals > State_graph.num_edges g);
    Alcotest.(check int) (name ^ " calls") (State_graph.num_edges g) !calls
  in
  check "handshake" (State_graph.enumerate (handshake_model ()));
  check "pp-model"
    (State_graph.enumerate
       (Avp_pp.Control_model.model Avp_pp.Control_model.default))

(* Regression: the bitset-based covers_all_edges. *)
let test_covers_all_edges_bitset () =
  let g = State_graph.enumerate (handshake_model ()) in
  let t = Avp_tour.Tour_gen.generate g in
  Alcotest.(check bool) "full tour covers" true
    (Avp_tour.Tour_gen.covers_all_edges g t);
  Alcotest.(check bool) "empty tour does not" false
    (Avp_tour.Tour_gen.covers_all_edges g
       { t with Avp_tour.Tour_gen.traces = [||] });
  (* A single truncated trace misses edges. *)
  let truncated =
    { t with
      Avp_tour.Tour_gen.traces =
        [| Array.sub t.Avp_tour.Tour_gen.traces.(0) 0 1 |] }
  in
  Alcotest.(check bool) "truncated tour does not" false
    (Avp_tour.Tour_gen.covers_all_edges g truncated);
  (* Steps referencing nonexistent sources are ignored, not fatal. *)
  let bogus_step =
    { Avp_tour.Tour_gen.src = 9999; dst = 0; choice = 0; fresh = false }
  in
  let with_bogus =
    { t with
      Avp_tour.Tour_gen.traces =
        Array.append t.Avp_tour.Tour_gen.traces [| [| bogus_step |] |] }
  in
  Alcotest.(check bool) "bogus step tolerated" true
    (Avp_tour.Tour_gen.covers_all_edges g with_bogus)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "digraph sccs" `Quick test_digraph_sccs;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "shortest path none" `Quick test_shortest_path_none;
    Alcotest.test_case "mcmf simple" `Quick test_mcmf_simple;
    Alcotest.test_case "mcmf prefers cheap" `Quick test_mcmf_prefers_cheap;
    Alcotest.test_case "euler circuit" `Quick test_euler_circuit;
    Alcotest.test_case "euler rejects unbalanced" `Quick
      test_euler_rejects_unbalanced;
    Alcotest.test_case "cpp diamond" `Quick test_cpp_diamond;
    Alcotest.test_case "cpp rejects disconnected" `Quick
      test_cpp_rejects_disconnected;
    QCheck_alcotest.to_alcotest prop_cpp_random_graphs;
    Alcotest.test_case "tour covers handshake" `Quick
      test_tour_covers_handshake;
    Alcotest.test_case "trace count = reset degree" `Quick
      test_tour_trace_count_matches_reset_degree;
    Alcotest.test_case "instr limit bounds traces" `Quick
      test_tour_instr_limit_bounds_traces;
    Alcotest.test_case "instruction weights" `Quick
      test_tour_instruction_weights;
    QCheck_alcotest.to_alcotest prop_tour_covers_random_models;
    QCheck_alcotest.to_alcotest prop_tour_with_limit_still_covers;
    QCheck_alcotest.to_alcotest prop_tour_matches_reference;
    Alcotest.test_case "tour matches reference on pp-model" `Quick
      test_tour_matches_reference_pp_model;
    Alcotest.test_case "weighs each arc once" `Quick
      test_tour_weighs_each_arc_once;
    Alcotest.test_case "covers_all_edges bitset" `Quick
      test_covers_all_edges_bitset;
  ]

(* ---------------------------------------------------------------- *)
(* Mealy minimization                                               *)
(* ---------------------------------------------------------------- *)

(* Two copies of a 2-state toggle glued together: states 0/1 behave
   exactly like 2/3. *)
let redundant_toggle =
  {
    Uio.Mealy.states = 4;
    inputs = 1;
    next = (fun s _ -> [| 1; 2; 3; 0 |].(s));
    output = (fun s _ -> s mod 2);
  }

let test_minimize_redundant () =
  let q, cls = Minimize.minimize redundant_toggle in
  Alcotest.(check int) "two classes" 2 q.Uio.Mealy.states;
  Alcotest.(check bool) "0 and 2 merge" true (cls.(0) = cls.(2));
  Alcotest.(check bool) "1 and 3 merge" true (cls.(1) = cls.(3));
  Alcotest.(check bool) "quotient is minimal" true (Minimize.is_minimal q);
  Alcotest.(check bool) "original is not" false
    (Minimize.is_minimal redundant_toggle)

let test_equivalent_states () =
  Alcotest.(check bool) "0 ~ 2" true
    (Minimize.equivalent redundant_toggle 0 2);
  Alcotest.(check bool) "0 !~ 1" false
    (Minimize.equivalent redundant_toggle 0 1)

let prop_minimize_preserves_behaviour =
  QCheck.Test.make ~name:"quotient machine preserves output traces"
    ~count:60
    (QCheck.make
       QCheck.Gen.(triple (int_range 2 6) (int_bound 999)
                     (list_size (int_range 1 12) (int_bound 1))))
    (fun (k, seed, word) ->
      let rng = Random.State.make [| seed |] in
      let nexts =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng k))
      in
      let outs =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng 2))
      in
      let m =
        {
          Uio.Mealy.states = k;
          inputs = 2;
          next = (fun s i -> nexts.(s).(i));
          output = (fun s i -> outs.(s).(i));
        }
      in
      let q, cls = Minimize.minimize m in
      Uio.Mealy.output_trace m 0 word
      = Uio.Mealy.output_trace q cls.(0) word)

(* ---------------------------------------------------------------- *)
(* UIO-method checking experiments                                  *)
(* ---------------------------------------------------------------- *)

(* A 3-state cyclic machine with distinguishable states. *)
let spec3 =
  {
    Uio.Mealy.states = 3;
    inputs = 2;
    next = (fun s i -> if i = 0 then (s + 1) mod 3 else s);
    output = (fun s i -> if i = 1 then s else 0);
  }

let test_checking_conforming () =
  let e = Checking.build spec3 in
  Alcotest.(check int) "subtest per transition" 6
    (List.length e.Checking.subtests);
  (match Checking.run e spec3 with
   | Checking.Conforms -> ()
   | v -> Alcotest.failf "expected conformance: %a" Checking.pp_verdict v);
  Alcotest.(check bool) "total inputs positive" true
    (Checking.total_inputs e > 6)

let test_checking_catches_wrong_output () =
  let e = Checking.build spec3 in
  let bad =
    { spec3 with
      Uio.Mealy.output = (fun s i -> if s = 2 && i = 1 then 7 else
                             spec3.Uio.Mealy.output s i) }
  in
  (* The corrupt output may first surface inside another subtest's
     UIO suffix; any failure that observed the bogus 7 counts. *)
  match Checking.run e bad with
  | Checking.Fails { got = 7; _ } -> ()
  | v -> Alcotest.failf "unexpected verdict: %a" Checking.pp_verdict v

let test_checking_catches_wrong_destination () =
  (* Output-correct but lands in the wrong state: only the UIO suffix
     can see it — a transition tour would pass this machine. *)
  let e = Checking.build spec3 in
  let bad =
    { spec3 with
      Uio.Mealy.next =
        (fun s i ->
          if s = 1 && i = 0 then 0 (* should go to 2 *)
          else spec3.Uio.Mealy.next s i) }
  in
  (match Checking.run e bad with
   | Checking.Fails { at = `Uio _; _ } -> ()
   | Checking.Fails _ as v ->
     Alcotest.failf "caught, but not via UIO: %a" Checking.pp_verdict v
   | Checking.Conforms -> Alcotest.fail "wrong destination escaped")

let test_checking_needs_uio () =
  (* A machine with indistinguishable states has no UIOs. *)
  let blind =
    {
      Uio.Mealy.states = 2;
      inputs = 1;
      next = (fun s _ -> 1 - s);
      output = (fun _ _ -> 0);
    }
  in
  match Checking.build blind with
  | exception Checking.No_uio _ -> ()
  | _ -> Alcotest.fail "expected No_uio"

let prop_checking_random_conforming =
  QCheck.Test.make ~name:"spec always conforms to its own experiment"
    ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 2 5) (int_bound 999)))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let nexts =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng k))
      in
      let outs =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng 3))
      in
      let m =
        {
          Uio.Mealy.states = k;
          inputs = 2;
          next = (fun s i -> nexts.(s).(i));
          output = (fun s i -> outs.(s).(i));
        }
      in
      (* Minimize first so UIOs exist; skip instances whose reachable
         part still lacks a UIO within the bound. *)
      let q, _ = Minimize.minimize m in
      match Checking.build q with
      | exception Checking.No_uio _ -> QCheck.assume_fail ()
      | e -> Checking.run e q = Checking.Conforms)

let suite =
  suite
  @ [
      Alcotest.test_case "minimize redundant machine" `Quick
        test_minimize_redundant;
      Alcotest.test_case "equivalent states" `Quick test_equivalent_states;
      QCheck_alcotest.to_alcotest prop_minimize_preserves_behaviour;
      Alcotest.test_case "checking: conforming impl" `Quick
        test_checking_conforming;
      Alcotest.test_case "checking: wrong output" `Quick
        test_checking_catches_wrong_output;
      Alcotest.test_case "checking: wrong destination" `Quick
        test_checking_catches_wrong_destination;
      Alcotest.test_case "checking: needs uio" `Quick test_checking_needs_uio;
      QCheck_alcotest.to_alcotest prop_checking_random_conforming;
    ]

(* ---------------------------------------------------------------- *)
(* Mutation analysis                                                *)
(* ---------------------------------------------------------------- *)

let test_mutation_counts () =
  (* spec3 has 3 states, 2 inputs, output alphabet {0,1,2}: each
     transition yields 2 output mutants and 2 transfer mutants. *)
  let ms = Mutation.mutants spec3 in
  Alcotest.(check int) "mutant count" (3 * 2 * (2 + 2)) (List.length ms)

let test_mutation_scores () =
  let s = Mutation.score spec3 in
  let detectable = s.Mutation.total - s.Mutation.equivalent in
  Alcotest.(check bool) "checking kills all detectable" true
    (s.Mutation.checking_killed = detectable);
  Alcotest.(check bool) "tour kills at most checking" true
    (s.Mutation.tour_killed <= s.Mutation.checking_killed);
  Alcotest.(check bool) "tour kills output mutants" true
    (s.Mutation.tour_killed > 0)

let test_transfer_mutant_survives_tour () =
  (* Find a transfer mutant the tour misses but checking kills: the
     quantitative form of "tours never verify destination states". *)
  let survivors =
    List.filter
      (fun (m : Mutation.mutant) ->
        m.Mutation.kind = Mutation.Transfer
        && (not (Mutation.equivalent_mutant spec3 m))
        && not (Mutation.tour_kills spec3 m))
      (Mutation.mutants spec3)
  in
  match survivors with
  | [] ->
    (* Every transfer mutant of this machine happens to echo wrong
       outputs along some tour; acceptable but worth distinguishing,
       so check the scores differ on a machine where they must. *)
    ()
  | m :: _ ->
    let e = Checking.build spec3 in
    Alcotest.(check bool) "checking kills the survivor" true
      (Mutation.checking_kills e m)

let prop_mutation_checking_dominates =
  QCheck.Test.make ~name:"checking experiments dominate tours on mutants"
    ~count:15
    (QCheck.make QCheck.Gen.(pair (int_range 2 4) (int_bound 999)))
    (fun (k, seed) ->
      let rng = Random.State.make [| seed |] in
      let nexts =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng k))
      in
      let outs =
        Array.init k (fun _ -> Array.init 2 (fun _ -> Random.State.int rng 2))
      in
      let m =
        {
          Uio.Mealy.states = k;
          inputs = 2;
          next = (fun s i -> nexts.(s).(i));
          output = (fun s i -> outs.(s).(i));
        }
      in
      let q, _ = Minimize.minimize m in
      match Mutation.score q with
      | exception Checking.No_uio _ -> QCheck.assume_fail ()
      | s ->
        s.Mutation.tour_killed <= s.Mutation.checking_killed
        && s.Mutation.checking_killed <= s.Mutation.total - s.Mutation.equivalent)

let suite =
  suite
  @ [
      Alcotest.test_case "mutation counts" `Quick test_mutation_counts;
      Alcotest.test_case "mutation scores" `Quick test_mutation_scores;
      Alcotest.test_case "transfer mutant vs tour" `Quick
        test_transfer_mutant_survives_tour;
      QCheck_alcotest.to_alcotest prop_mutation_checking_dominates;
    ]

(* ---------------------------------------------------------------- *)
(* Digraph utilities round-out                                      *)
(* ---------------------------------------------------------------- *)

let test_transpose () =
  let rev = Digraph.transpose diamond in
  Alcotest.(check (array int)) "in-degrees become out-degrees"
    (Digraph.in_degrees diamond)
    (Digraph.out_degrees rev);
  Alcotest.(check (array int)) "out-degrees become in-degrees"
    (Digraph.out_degrees diamond)
    (Digraph.in_degrees rev);
  (* transposing twice restores edge multiset *)
  let edge_multiset adj =
    let l = ref [] in
    Array.iteri
      (fun u out -> Array.iter (fun (v, lbl) -> l := (u, v, lbl) :: !l) out)
      adj;
    List.sort compare !l
  in
  Alcotest.(check bool) "double transpose" true
    (edge_multiset (Digraph.transpose rev) = edge_multiset diamond)

let test_reachable_partial () =
  let adj : Digraph.adj = [| [| (1, 0) |]; [||]; [| (1, 0) |] |] in
  let r = Digraph.reachable adj 0 in
  Alcotest.(check (array bool)) "only 0 and 1" [| true; true; false |] r

let prop_tour_trace_validity_under_weights =
  QCheck.Test.make ~name:"weighted tours remain valid walks" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 2 5) (int_range 1 20)))
    (fun (k, limit) ->
      let g = State_graph.enumerate (forked_model k) in
      let t =
        Tour_gen.generate ~instr_limit:limit
          ~instructions_of_edge:(fun ~src ~choice -> (src + choice) mod 3)
          g
      in
      Tour_gen.is_valid g t && Tour_gen.covers_all_edges g t)

(* A model and a graph that disagree: the states of this model leave
   choice "x" unread, so they keep no successor rows and [walk] asks
   the graph's model's [next]; a successor outside the graph names
   where it left. *)
let test_walk_leaves_graph () =
  let b = Model.Builder.create "toggle" in
  let s = Model.Builder.state b "s" [| "a"; "b"; "c" |] in
  let go = Model.Builder.choice_bool b "go" in
  let _ = Model.Builder.choice_bool b "x" in
  let m =
    Model.Builder.build b ~step:(fun ctx ->
        let open Model.Builder in
        if chosen ctx go = 1 then set ctx s (1 - get ctx s))
  in
  let g = State_graph.enumerate m in
  Alcotest.(check int) "s=c is unreachable" 2 (State_graph.num_states g);
  let leaky =
    {
      m with
      Model.next =
        (fun cur cv ->
          if cur.(0) = 1 && Model.index_of_choice m cv = 3 then [| 2 |]
          else m.Model.next cur cv);
    }
  in
  Alcotest.(check int) "the model's own walk stays in the graph" 2
    (Array.length (Tour_gen.walk g [| 2; 3 |]));
  Alcotest.check_raises "the leaky walk names state and choice"
    (Invalid_argument
       "Tour_gen.walk: the model's successor of state 1 under choice 3 is \
        not a state of the graph")
    (fun () ->
      ignore (Tour_gen.walk { g with State_graph.model = leaky } [| 2; 3 |]))

(* A walk of a translated model's graph reads the successor rows: the
   simulator the model steps with stays idle, while one [next] call
   does step it.  A choice outside the model's space is named instead
   of being decoded as another choice. *)
let test_walk_reads_rows () =
  let m = (Avp_pp.Control_hdl.translate ()).Translate.model in
  let g = State_graph.enumerate m in
  let steps f =
    let tracer = Avp_obs.Obs.create () in
    Avp_obs.Obs.with_tracer tracer f;
    Option.value ~default:0
      (List.assoc_opt "sim.steps" (Avp_obs.Obs.counters tracer))
  in
  let rng = Random.State.make [| 24 |] in
  let choices = Array.init 500 (fun _ -> Random.State.int rng 1024) in
  Alcotest.(check int) "one next is one step" 1
    (steps (fun () ->
         ignore (m.Model.next m.Model.reset (Model.choice_of_index m 5))));
  Alcotest.(check int) "a 500-cycle walk takes no step" 0
    (steps (fun () -> ignore (Tour_gen.walk g choices)));
  Alcotest.check_raises "choice 1024 is named"
    (Invalid_argument "State_graph.successor: choice 1024 is not in 0..1023")
    (fun () -> ignore (Tour_gen.walk g [| 3; 1024 |]))

let suite =
  suite
  @ [
      Alcotest.test_case "digraph transpose" `Quick test_transpose;
      Alcotest.test_case "walk off the graph names state and choice" `Quick
        test_walk_leaves_graph;
      Alcotest.test_case "walk reads the successor rows" `Quick
        test_walk_reads_rows;
      Alcotest.test_case "reachable partial" `Quick test_reachable_partial;
      QCheck_alcotest.to_alcotest prop_tour_trace_validity_under_weights;
    ]
