open Avp_fsm
open Avp_enum

(* Parallel enumeration must be bit-identical to sequential: same
   state numbering, same adjacency, same edge count, for any domain
   count. *)

let graphs_identical (a : State_graph.t) (b : State_graph.t) =
  State_graph.num_states a = State_graph.num_states b
  && State_graph.num_edges a = State_graph.num_edges b
  && a.State_graph.states = b.State_graph.states
  && a.State_graph.adj = b.State_graph.adj

(* [~parallel_threshold:1] forces the parallel path even on these
   small models; the default threshold would (correctly) keep them
   sequential.  A mid-range threshold exercises the sequential-warmup
   -> parallel switch. *)
let check_domains ?(all_conditions = false) name model =
  let seq = State_graph.enumerate ~all_conditions ~domains:1 model in
  Alcotest.(check int)
    (name ^ ": stats report 1 domain")
    1 seq.State_graph.stats.State_graph.domains;
  List.iter
    (fun d ->
      let par =
        State_graph.enumerate ~all_conditions ~domains:d
          ~parallel_threshold:1 model
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d domains identical to sequential" name d)
        true
        (graphs_identical seq par);
      let hybrid =
        State_graph.enumerate ~all_conditions ~domains:d
          ~parallel_threshold:
            (max 2 (State_graph.num_states seq / 2))
          model
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: %d domains with mid-run switch identical to sequential"
           name d)
        true
        (graphs_identical seq hybrid))
    [ 2; 4 ]

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

(* Below the default threshold a multi-domain request must not spawn
   domains at all: the stats report the sequential path was used. *)
let test_threshold_keeps_small_sequential () =
  let g = State_graph.enumerate ~domains:4 (handshake_model ()) in
  Alcotest.(check int) "small graph stayed sequential" 1
    g.State_graph.stats.State_graph.domains

let test_handshake_domains () =
  check_domains "handshake" (handshake_model ());
  check_domains ~all_conditions:true "handshake all-conditions"
    (handshake_model ())

let test_control_tiny_domains () =
  check_domains "control tiny"
    (Avp_pp.Control_model.model Avp_pp.Control_model.tiny)

let test_control_default_domains () =
  check_domains "control default"
    (Avp_pp.Control_model.model Avp_pp.Control_model.default)

(* A pseudo-random interlocked machine: three counters whose updates
   mix the choices and each other through seed-dependent arithmetic.
   Deterministic in the seed, so the property is reproducible. *)
let random_model seed =
  let b = Model.Builder.create (Printf.sprintf "rand%d" seed) in
  let c0 = 3 + (seed mod 3) in
  let c1 = 2 + (seed mod 4) in
  let c2 = 2 + ((seed / 3) mod 3) in
  let v0 = Model.Builder.state b "v0" (Array.init c0 string_of_int) in
  let v1 = Model.Builder.state b "v1" (Array.init c1 string_of_int) in
  let v2 = Model.Builder.state b "v2" (Array.init c2 string_of_int) in
  let x = Model.Builder.choice_bool b "x" in
  let y = Model.Builder.choice b "y" [| "a"; "b"; "c" |] in
  Model.Builder.build b ~step:(fun ctx ->
      let open Model.Builder in
      let a = get ctx v0 and bb = get ctx v1 and c = get ctx v2 in
      let cx = chosen ctx x and cy = chosen ctx y in
      set ctx v0 (((a + cx + (cy * (seed mod 5))) + (bb * c)) mod c0);
      if (a + cy + seed) mod 3 <> 0 then
        set ctx v1 ((bb + a + cx + (seed mod 7)) mod c1);
      if cx = 1 || c > 0 then set ctx v2 ((c + a + cy) mod c2))

let prop_random_models_domain_invariant =
  QCheck.Test.make ~name:"random machines: parallel = sequential" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let m = random_model seed in
      let seq = State_graph.enumerate ~domains:1 m in
      List.for_all
        (fun d ->
          graphs_identical seq
            (State_graph.enumerate ~domains:d ~parallel_threshold:1 m))
        [ 2; 4 ])

(* Regression: find_state is an index probe now — it must still find
   every enumerated state and reject out-of-range valuations. *)
let test_find_state_index () =
  let g =
    State_graph.enumerate
      (Avp_pp.Control_model.model Avp_pp.Control_model.tiny)
  in
  Array.iteri
    (fun id v ->
      Alcotest.(check (option int))
        (Printf.sprintf "state %d found" id)
        (Some id)
        (State_graph.find_state g v))
    g.State_graph.states;
  let bogus =
    Array.map (fun _ -> 97) g.State_graph.states.(0)
  in
  Alcotest.(check (option int)) "bogus valuation absent" None
    (State_graph.find_state g bogus);
  (* Valuations the packed key would alias onto a state. *)
  let s3 = g.State_graph.states.(3) in
  Alcotest.(check (option int)) "state 3 without its last variable" None
    (State_graph.find_state g (Array.sub s3 0 (Array.length s3 - 1)));
  let h = State_graph.enumerate (handshake_model ()) in
  List.iter
    (fun (what, v) ->
      Alcotest.(check (option int)) what None (State_graph.find_state h v))
    [ ("handshake: empty", [||]); ("handshake: 256", [| 256 |]);
      ("handshake: -255", [| -255 |]); ("handshake: too long", [| 0; 0 |]) ]

(* Regression: cardinalities beyond the two-byte packed key must be
   rejected loudly, not silently truncated. *)
let test_packer_cardinality_limit () =
  let huge = Model.var "huge" (Array.init 65_537 string_of_int) in
  let m =
    Model.create ~name:"overflow" ~state_vars:[ huge ] ~choice_vars:[]
      ~reset:[ 0 ]
      ~next:(fun s _ -> s)
      ()
  in
  match State_graph.enumerate m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for cardinality 65537"

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

(* The explicit-domains default still honours AVP_DOMAINS. *)
let test_default_domains_env () =
  let d = State_graph.default_domains () in
  Alcotest.(check bool) "at least one domain" true (d >= 1)

let suite =
  [
    Alcotest.test_case "small graphs stay sequential" `Quick
      test_threshold_keeps_small_sequential;
    Alcotest.test_case "handshake domains 1/2/4" `Quick
      test_handshake_domains;
    Alcotest.test_case "control tiny domains 1/2/4" `Quick
      test_control_tiny_domains;
    Alcotest.test_case "control default domains 1/2/4" `Slow
      test_control_default_domains;
    QCheck_alcotest.to_alcotest prop_random_models_domain_invariant;
    Alcotest.test_case "find_state via index" `Quick test_find_state_index;
    Alcotest.test_case "packer cardinality limit" `Quick
      test_packer_cardinality_limit;
    Alcotest.test_case "covers_all_edges bitset" `Quick
      test_covers_all_edges_bitset;
    Alcotest.test_case "default_domains sane" `Quick test_default_domains_env;
  ]
