(* Properties of the structured mutation engine: every mutant is a
   well-formed design (pretty-prints, re-parses, re-elaborates), is
   structurally distinct from the original, and the whole pipeline —
   site enumeration, seeded sampling, the kill campaign — is
   deterministic, including across engines. *)

open Avp_fsm
open Avp_enum
module Op = Avp_mutate.Op
module Gen = Avp_mutate.Gen
module Filter = Avp_mutate.Filter
module Campaign = Avp_mutate.Campaign

let design = lazy (Avp_pp.Control_hdl.parse ())
let mutants = lazy (Gen.all (Lazy.force design))

let golden = lazy (
  let tr = Translate.translate (Avp_hdl.Elab.elaborate (Lazy.force design)) in
  let graph = State_graph.enumerate tr.Translate.model in
  let tours = Avp_tour.Tour_gen.generate graph in
  (tr, graph, tours))

(* --- qcheck: structural well-formedness of every mutant ----------- *)

let mutant_index =
  QCheck.int_range 0 (List.length (Lazy.force mutants) - 1)

let prop_mutant_reparses =
  QCheck.Test.make ~name:"mutant pretty-prints, re-parses, re-elaborates"
    ~count:60 mutant_index (fun i ->
      let m = List.nth (Lazy.force mutants) i in
      let printed = Format.asprintf "%a" Avp_hdl.Ast.pp_design m.Gen.design in
      let reparsed = Avp_hdl.Parser.parse printed in
      let e1 = Avp_hdl.Elab.elaborate m.Gen.design in
      let e2 = Avp_hdl.Elab.elaborate reparsed in
      Array.length e1.Avp_hdl.Elab.nets = Array.length e2.Avp_hdl.Elab.nets
      && Array.length e1.Avp_hdl.Elab.processes
         = Array.length e2.Avp_hdl.Elab.processes)

let prop_mutant_differs =
  QCheck.Test.make ~name:"mutant differs structurally from the original"
    ~count:60 mutant_index (fun i ->
      let m = List.nth (Lazy.force mutants) i in
      not (Avp_hdl.Ast.equal_design (Lazy.force design) m.Gen.design))

(* --- determinism -------------------------------------------------- *)

let ids ms = List.map (fun m -> m.Gen.id) ms

let test_generator_deterministic () =
  let d = Lazy.force design in
  let a = Gen.all d and b = Gen.all d in
  Alcotest.(check (list int)) "same ids" (ids a) (ids b);
  List.iter2
    (fun x y ->
      Alcotest.(check string) "same detail" x.Gen.descr.Op.detail
        y.Gen.descr.Op.detail;
      Alcotest.(check bool) "same design" true
        (Avp_hdl.Ast.equal_design x.Gen.design y.Gen.design))
    a b

let test_sample_deterministic () =
  let all = Lazy.force mutants in
  let a = Gen.sample ~seed:7 ~budget:20 all in
  let b = Gen.sample ~seed:7 ~budget:20 all in
  Alcotest.(check (list int)) "same sample" (ids a) (ids b);
  Alcotest.(check int) "budget respected" 20 (List.length a);
  let sorted = List.sort compare (ids a) in
  Alcotest.(check (list int)) "ids sorted" sorted (ids a);
  List.iter
    (fun m -> Alcotest.(check bool) "id from exhaustive set" true
        (List.exists (fun m' -> m'.Gen.id = m.Gen.id) all))
    a

let test_random_tours_profile () =
  let tr, graph, tours = Lazy.force golden in
  let r1 = Campaign.random_tours ~seed:5 tr.Translate.model graph tours in
  let r2 = Campaign.random_tours ~seed:5 tr.Translate.model graph tours in
  Alcotest.(check bool) "deterministic" true (r1 = r2);
  Alcotest.(check int) "same trace count"
    (Array.length tours.Avp_tour.Tour_gen.traces)
    (Array.length r1.Avp_tour.Tour_gen.traces);
  Array.iteri
    (fun i t ->
      Alcotest.(check int) "same trace length" (Array.length t)
        (Array.length r1.Avp_tour.Tour_gen.traces.(i)))
    tours.Avp_tour.Tour_gen.traces

(* The bit-sliced schemata engine is a pure performance play: the
   report — kill details, escape messages, survivor notes — must be
   byte-identical to the scalar engine's, whatever the lane count. *)
let test_campaign_engine_invariant () =
  let tr, graph, tours = Lazy.force golden in
  let d = Lazy.force design in
  let run ~engine ~lanes =
    Campaign.to_json
      (Campaign.run ~seed:3 ~budget:24 ~engine ~lanes ~design:d ~tr ~graph
         ~tours ())
  in
  let scalar = run ~engine:`Scalar ~lanes:1 in
  List.iter
    (fun lanes ->
      Alcotest.(check string)
        (Printf.sprintf "sliced lanes=%d matches scalar" lanes)
        scalar
        (run ~engine:`Sliced ~lanes))
    [ 1; 8; 62 ]

(* --- vetting and equivalence -------------------------------------- *)

let test_vet_pristine () =
  match Filter.vet (Lazy.force design) with
  | `Ok _ -> ()
  | `Stillborn m | `Static m -> Alcotest.failf "pristine design vetoed: %s" m

let test_equivalent_pristine () =
  let _, graph, _ = Lazy.force golden in
  let elab = Avp_hdl.Elab.elaborate (Lazy.force design) in
  match Filter.equivalent ~pristine:graph elab with
  | `Equivalent -> ()
  | `Different why | `Unknown why ->
    Alcotest.failf "pristine not equivalent to itself: %s" why

let test_family_names_roundtrip () =
  List.iter
    (fun f ->
      match Op.family_of_name (Op.family_name f) with
      | Some f' ->
        Alcotest.(check string) "round trip" (Op.family_name f)
          (Op.family_name f')
      | None -> Alcotest.failf "family %s unparsable" (Op.family_name f))
    Op.all_families;
  Alcotest.(check bool) "unknown rejected" true
    (Op.family_of_name "no-such-family" = None)

let test_families_filter () =
  let d = Lazy.force design in
  List.iter
    (fun (m : Gen.mutant) ->
      Alcotest.(check string) "only requested family" "drop-assign"
        (Op.family_name m.Gen.descr.Op.family))
    (Gen.all ~families:[ Op.Drop_assign ] d)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mutant_reparses;
    QCheck_alcotest.to_alcotest prop_mutant_differs;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "seeded sample deterministic" `Quick
      test_sample_deterministic;
    Alcotest.test_case "random baseline matches tour profile" `Quick
      test_random_tours_profile;
    Alcotest.test_case "campaign invariant across engines and lanes" `Slow
      test_campaign_engine_invariant;
    Alcotest.test_case "pristine design passes vetting" `Quick
      test_vet_pristine;
    Alcotest.test_case "pristine equivalent to itself" `Quick
      test_equivalent_pristine;
    Alcotest.test_case "family names round-trip" `Quick
      test_family_names_roundtrip;
    Alcotest.test_case "family filter" `Quick test_families_filter;
  ]
