open Avp_pp
open Avp_fsm
open Avp_enum

(* ---------------------------------------------------------------- *)
(* Abstract control model                                           *)
(* ---------------------------------------------------------------- *)

let test_model_validates () =
  List.iter
    (fun (name, cfg) ->
      match Model.validate (Control_model.model cfg) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    [ ("tiny", Control_model.tiny); ("default", Control_model.default) ]

let test_interlock_prunes () =
  let m = Control_model.model Control_model.default in
  let g = State_graph.enumerate m in
  let upper = Model.num_states_upper_bound m in
  Alcotest.(check bool) "states well below the product bound" true
    (float_of_int (State_graph.num_states g) < upper /. 10.)

let test_reset_only_edges () =
  (* The boot flag makes the reset state unreachable after the first
     cycle: every tour needs at least reset-out-degree traces. *)
  let g = State_graph.enumerate (Control_model.model Control_model.default) in
  let reset_deg = State_graph.out_degree g 0 in
  Alcotest.(check bool) "reset has multiple out edges" true (reset_deg > 1);
  let incoming_to_reset =
    Array.exists
      (fun out -> Array.exists (fun (dst, _) -> dst = 0) out)
      g.State_graph.adj
  in
  Alcotest.(check bool) "reset is never re-entered" false incoming_to_reset

let test_instruction_weights () =
  let cfg = Control_model.default in
  let m = Control_model.model cfg in
  let g = State_graph.enumerate m in
  (* Stall edges issue nothing; some edges issue one instruction. *)
  let zero = ref false and one = ref false in
  Array.iteri
    (fun src out ->
      Array.iter
        (fun (_, ci) ->
          let k =
            Control_model.instructions_of_edge cfg
              ~src:g.State_graph.states.(src)
              ~choice:(Model.choice_of_index m ci)
          in
          if k = 0 then zero := true;
          if k = 1 then one := true)
        out)
    g.State_graph.adj;
  Alcotest.(check bool) "stall edges exist" true !zero;
  Alcotest.(check bool) "issue edges exist" true !one

let test_dual_issue_weights () =
  let cfg = { Control_model.default with Control_model.dual_issue = true } in
  let m = Control_model.model cfg in
  let g = State_graph.enumerate m in
  let two = ref false in
  Array.iteri
    (fun src out ->
      Array.iter
        (fun (_, ci) ->
          if
            Control_model.instructions_of_edge cfg
              ~src:g.State_graph.states.(src)
              ~choice:(Model.choice_of_index m ci)
            = 2
          then two := true)
        out)
    g.State_graph.adj;
  Alcotest.(check bool) "dual-issue edges exist" true !two

let test_obs_mapping_reaches_model () =
  (* Running real programs, most control observations project onto
     reachable abstract states. *)
  let cfg = Control_model.default in
  let g = State_graph.enumerate (Control_model.model cfg) in
  let program =
    [|
      Isa.Alui (Isa.Add, 1, 0, 3);
      Isa.Lw (2, 0, 0);
      Isa.Sw (1, 0, 1);
      Isa.Lw (3, 0, 1);
      Isa.Lw (4, 0, 16);
      Isa.Send 1;
      Isa.Switch 5;
      Isa.Halt;
    |]
  in
  let rtl = Rtl.create ~program ~inbox:[ 9 ] () in
  let mapped = ref 0 and total = ref 0 in
  let rec loop () =
    if (not (Rtl.halted rtl)) && Rtl.cycle rtl < 500 then begin
      Rtl.step rtl ~inbox_ready:true ~outbox_ready:true;
      incr total;
      (match
         State_graph.find_state g
           (Control_model.valuation_of_obs cfg (Rtl.observe rtl))
       with
       | Some _ -> incr mapped
       | None -> ());
      loop ()
    end
  in
  loop ();
  Alcotest.(check bool) "most cycles map onto the abstract space" true
    (!mapped * 2 > !total)

(* ---------------------------------------------------------------- *)
(* The transition against its reference                             *)
(* ---------------------------------------------------------------- *)

(* Every preset, and each with the squashing branches (which fetch
   twice in one cycle) and the fetch gaps switched on. *)
let reference_configs =
  let open Control_model in
  [ ("tiny", tiny); ("default", default); ("medium", medium);
    ("large", large) ]
  |> List.concat_map (fun (name, cfg) ->
         [ (name, cfg);
           (name ^ " with branches", { cfg with with_branches = true });
           (name ^ " with fetch gaps", { cfg with with_fetch_gaps = true });
           ( name ^ " with both",
             { cfg with with_branches = true; with_fetch_gaps = true } ) ])
  |> List.map (fun (name, cfg) ->
         (name, cfg, Control_model.model cfg, Control_reference.layout cfg))
  |> Array.of_list

(* A random in-range state and choice valuation of a random config: the
   transition must write the reference's successor, issue its count and
   ask [read] for the same choices in the same order. *)
let prop_transition_matches_reference =
  let open QCheck.Gen in
  let values vars =
    flatten_a (Array.map (fun v -> int_bound (Model.card v - 1)) vars)
  in
  let gen =
    int_bound (Array.length reference_configs - 1) >>= fun k ->
    let _, _, m, _ = reference_configs.(k) in
    map2
      (fun st ch -> (k, st, ch))
      (values m.Model.state_vars) (values m.Model.choice_vars)
  in
  let print (k, st, ch) =
    let name, _, _, _ = reference_configs.(k) in
    let ints a =
      String.concat "," (Array.to_list (Array.map string_of_int a))
    in
    Printf.sprintf "%s state [%s] choices [%s]" name (ints st) (ints ch)
  in
  QCheck.Test.make ~name:"transition matches the reference" ~count:5000
    (QCheck.make gen ~print)
    (fun (k, st, ch) ->
      let _, cfg, m, l = reference_configs.(k) in
      let reads = ref [] in
      let read i =
        reads := i :: !reads;
        ch.(i)
      in
      let out = Array.make (Array.length st) (-1) in
      m.Model.next_into st read out;
      let got_reads = List.rev !reads in
      reads := [];
      let ref_out = Array.make (Array.length st) (-1) in
      let ref_issued =
        Control_reference.transition_into cfg l st read ~out:ref_out
      in
      out = ref_out
      && got_reads = List.rev !reads
      && m.Model.next st ch = ref_out
      && Control_model.instructions_of_edge cfg ~src:st ~choice:ch
         = ref_issued)

(* Weighing every arc of medium, its choices decoded beforehand: within
   16 words an arc, by [Gc.minor_words] (93.5 when each call rebuilt
   the layout, a successor and a result tuple). *)
let test_weighing_allocation () =
  let cfg = Control_model.medium in
  let m = Control_model.model cfg in
  let g = State_graph.enumerate m in
  let arcs =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun src out ->
              Array.map
                (fun (_, ci) ->
                  (g.State_graph.states.(src), Model.choice_of_index m ci))
                out)
            g.State_graph.adj))
  in
  let l = Control_reference.layout cfg in
  let expected =
    Array.fold_left
      (fun acc (src, choice) ->
        let out = Array.make (Array.length src) 0 in
        acc
        + Control_reference.transition_into cfg l src (Array.get choice) ~out)
      0 arcs
  in
  let issued = ref 0 in
  let weigh (src, choice) =
    issued := !issued + Control_model.instructions_of_edge cfg ~src ~choice
  in
  let before = Gc.minor_words () in
  Array.iter weigh arcs;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "arcs" 67_710 (Array.length arcs);
  Alcotest.(check int) "instructions as the reference" expected !issued;
  let per_arc = words /. float_of_int (Array.length arcs) in
  if per_arc > 16. then
    Alcotest.failf "weighing allocated %.1f words per arc, above 16" per_arc

(* Each of the enumerator's 68,052 [next_into] calls on medium, measured
   on its own by [Gc.minor_words]: no words at all (35 a call when the
   transition copied the pipe window and built closures). *)
let test_next_into_allocation () =
  let m = Control_model.model Control_model.medium in
  let calls = ref 0 and words = ref 0. in
  let measured =
    {
      m with
      Model.next_into =
        (fun st read dst ->
          let before = Gc.minor_words () in
          m.Model.next_into st read dst;
          let after = Gc.minor_words () in
          incr calls;
          words := !words +. (after -. before));
    }
  in
  ignore (State_graph.enumerate measured);
  Alcotest.(check int) "calls" 68_052 !calls;
  Alcotest.(check (float 0.)) "words allocated" 0. !words

(* ---------------------------------------------------------------- *)
(* Control logic in HDL                                              *)
(* ---------------------------------------------------------------- *)

let test_control_hdl_translates () =
  let r = Control_hdl.translate () in
  let m = r.Avp_fsm.Translate.model in
  Alcotest.(check int) "six state vars" 6 (Array.length m.Model.state_vars);
  Alcotest.(check int) "eight frees" 8 (Array.length m.Model.choice_vars);
  match Model.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_control_hdl_enumerates () =
  let r = Control_hdl.translate () in
  let g = State_graph.enumerate r.Avp_fsm.Translate.model in
  Alcotest.(check bool) "non-trivial graph" true
    (State_graph.num_states g > 10);
  let t = Avp_tour.Tour_gen.generate g in
  Alcotest.(check bool) "tours cover" true
    (Avp_tour.Tour_gen.covers_all_edges g t)

let test_control_hdl_line_stats () =
  let ctl, total = Control_hdl.line_stats () in
  Alcotest.(check bool) "control lines counted" true (ctl > 0 && ctl < total)

(* ---------------------------------------------------------------- *)
(* Waveforms                                                        *)
(* ---------------------------------------------------------------- *)

let test_wave_render () =
  let probes =
    [
      { Rtl.p_cycle = 5; p_membus = None; p_membus_valid = false;
        p_glitch = false; p_external_stall = false; p_dstall = true };
      { Rtl.p_cycle = 6; p_membus = Some 0xBEEF; p_membus_valid = true;
        p_glitch = false; p_external_stall = false; p_dstall = true };
      { Rtl.p_cycle = 7; p_membus = None; p_membus_valid = false;
        p_glitch = true; p_external_stall = true; p_dstall = false };
    ]
  in
  let s = Wave.render probes in
  let has needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i =
      i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "bus value shown" true (has "beef");
  Alcotest.(check bool) "z shown" true (has "zzzz");
  Alcotest.(check bool) "glitch marker" true (has "GLTCH");
  Alcotest.(check bool) "has membus row" true (has "Membus")

let test_wave_window () =
  let mk c bus =
    { Rtl.p_cycle = c; p_membus = bus; p_membus_valid = bus <> None;
      p_glitch = false; p_external_stall = false; p_dstall = false }
  in
  let probes =
    List.init 30 (fun c -> mk c (if c = 20 then Some 0x1234 else None))
  in
  let s = Wave.render_window ~before:1 ~after:2 probes in
  let has needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i =
      i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "window centred on the driven cycle" true
    (has "c19" && has "c20" && has "c22");
  Alcotest.(check bool) "cycles far away trimmed" false (has "c10")

(* ---------------------------------------------------------------- *)
(* Errata                                                           *)
(* ---------------------------------------------------------------- *)

let test_errata_counts () =
  let open Avp_errata in
  Alcotest.(check int) "pipeline/datapath" 3
    (Errata.count Errata.Pipeline_datapath);
  Alcotest.(check int) "single control" 17
    (Errata.count Errata.Single_control);
  Alcotest.(check int) "multiple event" 26
    (Errata.count Errata.Multiple_event);
  Alcotest.(check int) "total" 46 (Errata.total ())

let test_errata_classifier_agrees () =
  let open Avp_errata in
  List.iter
    (fun e ->
      if Errata.classify e <> e.Errata.cls then
        Alcotest.failf "entry %d classified inconsistently" e.Errata.id)
    Errata.all

let test_errata_ids_unique () =
  let open Avp_errata in
  let ids = List.map (fun e -> e.Errata.id) Errata.all in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq Int.compare ids))

let test_errata_percentages () =
  let open Avp_errata in
  let sum =
    List.fold_left
      (fun acc cls -> acc +. Errata.percentage cls)
      0.
      [ Errata.Pipeline_datapath; Errata.Single_control;
        Errata.Multiple_event ]
  in
  Alcotest.(check bool) "percentages sum to 100" true
    (abs_float (sum -. 100.) < 0.01)

let suite =
  [
    Alcotest.test_case "control model validates" `Quick test_model_validates;
    Alcotest.test_case "interlock prunes product" `Quick
      test_interlock_prunes;
    Alcotest.test_case "reset-only edges" `Quick test_reset_only_edges;
    Alcotest.test_case "instruction weights" `Quick test_instruction_weights;
    Alcotest.test_case "dual issue weights" `Quick test_dual_issue_weights;
    Alcotest.test_case "rtl observations map to model" `Quick
      test_obs_mapping_reaches_model;
    QCheck_alcotest.to_alcotest prop_transition_matches_reference;
    Alcotest.test_case "instructions_of_edge allocates at most 16 words per arc"
      `Quick test_weighing_allocation;
    Alcotest.test_case "next_into allocates nothing" `Quick
      test_next_into_allocation;
    Alcotest.test_case "control hdl translates" `Quick
      test_control_hdl_translates;
    Alcotest.test_case "control hdl enumerates" `Slow
      test_control_hdl_enumerates;
    Alcotest.test_case "control hdl line stats" `Quick
      test_control_hdl_line_stats;
    Alcotest.test_case "wave render" `Quick test_wave_render;
    Alcotest.test_case "wave window" `Quick test_wave_window;
    Alcotest.test_case "errata counts" `Quick test_errata_counts;
    Alcotest.test_case "errata classifier" `Quick
      test_errata_classifier_agrees;
    Alcotest.test_case "errata ids unique" `Quick test_errata_ids_unique;
    Alcotest.test_case "errata percentages" `Quick test_errata_percentages;
  ]

let test_no_absorbing_states () =
  (* Found the hard way: an earlier revision of the control Verilog
     deadlocked in 9 states (a dirty miss waited on a port_busy that
     included its own spill bit) and the tour flow traversed their
     self-loops without complaint.  Liveness needs its own check. *)
  let g_hdl =
    State_graph.enumerate (Control_hdl.translate ()).Avp_fsm.Translate.model
  in
  Alcotest.(check (list int)) "hdl control is deadlock-free" []
    (State_graph.absorbing_states g_hdl);
  let g_model =
    State_graph.enumerate (Control_model.model Control_model.default)
  in
  Alcotest.(check (list int)) "abstract model is deadlock-free" []
    (State_graph.absorbing_states g_model)

let suite =
  suite
  @ [
      Alcotest.test_case "no absorbing states" `Slow
        test_no_absorbing_states;
    ]
