(* Coverage-guided fuzzing tests: mutator well-formedness (qcheck),
   the incremental coverage-delta algebra, corpus JSON round-trips,
   and the loop's determinism contract — fixed seed fixes the corpus
   byte-for-byte across reruns and engines, and a persisted corpus
   replays to the identical result. *)

module Coverage = Avp_obs.Coverage
module Corpus = Avp_fuzz.Corpus
module Mutator = Avp_fuzz.Mutator
module Loop = Avp_fuzz.Loop
module Model = Avp_fsm.Model

let counter_src =
  {|
module counter (clk, rst, en, dir, count);
  input clk, rst;
  input en; // avp free
  input dir; // avp free
  output [2:0] count;
  reg [2:0] state; // avp state
  // avp clock clk
  // avp reset rst
  always @(posedge clk) begin
    if (rst) state <= 3'b000;
    else if (en) begin
      if (dir) state <= state + 3'b001;
      else state <= state - 3'b001;
    end
  end
  assign count = state;
endmodule
|}

let pipeline =
  lazy
    (let design = Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse counter_src) in
     let tr = Avp_fsm.Translate.translate design in
     let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
     (tr, graph))

let small_config =
  { Loop.default_config with Loop.budget = 64; batch = 15; init_len = 8 }

(* {2 Mutator well-formedness (qcheck)} *)

(* Any chain of mutation operators over any seed entry stays
   well-formed: non-empty, within max_len, every element a valid
   choice index.  The generator drives the op choice through the
   seeded PRNG exactly as the loop does. *)
let prop_mutator_well_formed =
  QCheck.Test.make ~name:"mutated entries stay well-formed" ~count:200
    QCheck.(triple small_nat small_nat (int_range 1 24))
    (fun (seed, chain, len) ->
      let tr, _ = Lazy.force pipeline in
      let model = tr.Avp_fsm.Translate.model in
      let sp = Mutator.space ~max_len:16 model in
      let nc = Model.num_choices model in
      let rng = Random.State.make [| 0xf00d; seed |] in
      let e = ref (Mutator.random_entry sp rng ~len) in
      let corpus = [| Mutator.random_entry sp rng ~len:4 |] in
      for _ = 0 to chain mod 8 do
        e := Mutator.mutate sp rng ~corpus !e
      done;
      Corpus.well_formed ~num_choices:nc ~max_len:16 !e)

(* {2 Coverage delta algebra} *)

(* Deltas across arbitrary mark batches are component-wise
   non-negative, and summing consecutive deltas reproduces the final
   from-scratch counts. *)
let prop_delta_monotone =
  QCheck.Test.make ~name:"coverage deltas are monotone and sum to the recount"
    ~count:100
    QCheck.(pair small_nat (list (pair (int_range 0 7) (int_range 0 7))))
    (fun (salt, marks) ->
      let _, graph = Lazy.force pipeline in
      let cov = Coverage.of_graph graph.Avp_enum.State_graph.adj in
      let rng = Random.State.make [| 0xde17a; salt |] in
      let zero = Coverage.counts cov in
      let sum = ref zero in
      let add a b =
        {
          Coverage.c_states = a.Coverage.c_states + b.Coverage.c_states;
          c_arcs = a.Coverage.c_arcs + b.Coverage.c_arcs;
          c_pairs = a.Coverage.c_pairs + b.Coverage.c_pairs;
          c_unmapped = a.Coverage.c_unmapped + b.Coverage.c_unmapped;
        }
      in
      let ok = ref true in
      List.iter
        (fun (a, b) ->
          let before = Coverage.counts cov in
          Coverage.mark_state cov a;
          Coverage.mark_arc cov ~src:a ~dst:b;
          Coverage.mark_pair cov ~state:a ~cls:(Random.State.int rng 4);
          let d = Coverage.delta ~before ~after:(Coverage.counts cov) in
          if d.Coverage.c_states < 0 || d.Coverage.c_arcs < 0
             || d.Coverage.c_pairs < 0 || d.Coverage.c_unmapped < 0
          then ok := false;
          sum := add !sum d)
        marks;
      !ok && add zero !sum = Coverage.counts cov)

(* {2 Corpus JSON round-trip} *)

let test_corpus_roundtrip () =
  let c =
    {
      Corpus.design = "counter";
      seed = 7;
      num_choices = 4;
      entries = [| [| 0; 3; 1 |]; [| 2 |]; [| 1; 1; 1; 1 |] |];
    }
  in
  match Corpus.of_json (Corpus.to_json c) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok c' ->
    Alcotest.(check string) "design" c.Corpus.design c'.Corpus.design;
    Alcotest.(check int) "seed" c.Corpus.seed c'.Corpus.seed;
    Alcotest.(check int) "num_choices" c.Corpus.num_choices
      c'.Corpus.num_choices;
    Alcotest.(check bool) "entries" true (c.Corpus.entries = c'.Corpus.entries)

let test_corpus_file_roundtrip () =
  let tr, graph = Lazy.force pipeline in
  let r = Loop.run ~config:small_config tr graph in
  let c = Loop.corpus r tr in
  let file = Filename.temp_file "avp_corpus" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Corpus.save c ~file;
      match Corpus.load ~file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok c' ->
        Alcotest.(check bool) "file round-trip" true (c = c'));
  ignore graph

(* {2 Loop determinism} *)

let entries_of r = Array.map (fun k -> k.Loop.entry) r.Loop.kept
let gains_of r = Array.map (fun k -> k.Loop.gain) r.Loop.kept

(* [explore] compares the full exploration budget too — true when
   both sides are growing runs; a replay only executes the kept
   corpus, so its budget is legitimately smaller. *)
let check_same_run ?(explore = true) label (a : Loop.result)
    (b : Loop.result) =
  Alcotest.(check bool)
    (label ^ ": corpora identical")
    true
    (entries_of a = entries_of b);
  Alcotest.(check bool)
    (label ^ ": gains identical")
    true
    (gains_of a = gains_of b);
  Alcotest.(check bool)
    (label ^ ": coverage identical")
    true
    (Coverage.counts a.Loop.coverage = Coverage.counts b.Loop.coverage);
  if explore then
    Alcotest.(check int)
      (label ^ ": explore cycles")
      a.Loop.explore_cycles b.Loop.explore_cycles

let test_rerun_deterministic () =
  let tr, graph = Lazy.force pipeline in
  let a = Loop.run ~config:small_config tr graph in
  let b = Loop.run ~config:small_config tr graph in
  check_same_run "rerun" a b;
  Alcotest.(check bool)
    "corpus is non-trivial" true
    (Array.length a.Loop.kept > 0)

let test_engine_invariance () =
  let tr, graph = Lazy.force pipeline in
  let scalar =
    Loop.run ~config:{ small_config with Loop.engine = `Scalar } tr graph
  in
  let sliced =
    Loop.run ~config:{ small_config with Loop.engine = `Sliced } tr graph
  in
  check_same_run "scalar vs sliced" scalar sliced

let test_seed_sensitivity () =
  let tr, graph = Lazy.force pipeline in
  let a = Loop.run ~config:small_config tr graph in
  let b = Loop.run ~config:{ small_config with Loop.seed = 1 } tr graph in
  (* Different seeds explore differently; lengths record every
     candidate, so identical length streams would mean the PRNG is
     not actually seeding the schedule. *)
  Alcotest.(check bool)
    "seed changes the candidate stream" true
    (a.Loop.lengths <> b.Loop.lengths)

(* {2 Replay identity} *)

let test_replay_identity () =
  let tr, graph = Lazy.force pipeline in
  let r = Loop.run ~config:small_config tr graph in
  let c = Loop.corpus r tr in
  List.iter
    (fun (label, config) ->
      match Loop.replay ~config c tr graph with
      | Error e -> Alcotest.failf "%s replay failed: %s" label e
      | Ok r' -> check_same_run ~explore:false ("replay " ^ label) r r')
    [
      ("same-engine", small_config);
      ("scalar", { small_config with Loop.engine = `Scalar });
    ]

let test_replay_rejects_foreign () =
  let tr, graph = Lazy.force pipeline in
  let r = Loop.run ~config:small_config tr graph in
  let c = Loop.corpus r tr in
  let foreign = { c with Corpus.design = "other_top" } in
  (match Loop.replay ~config:small_config foreign tr graph with
   | Ok _ -> Alcotest.fail "foreign corpus accepted"
   | Error _ -> ());
  let malformed =
    { c with Corpus.entries = Array.append c.Corpus.entries [| [||] |] }
  in
  match Loop.replay ~config:small_config malformed tr graph with
  | Ok _ -> Alcotest.fail "malformed entry accepted"
  | Error _ -> ()

(* {2 Plan check} *)

(* Execution is checked against the plan: the pristine model plans
   every candidate while a mutant's elaboration executes it.  One
   mutant counts up by two, so its state net leaves the walk at the
   first up-count; the other never leaves x after reset, so its state
   net carries x from reset release on.  Both engines must raise
   [Diverged] in the first round, naming the same candidate and
   divergence. *)
let test_divergence_raises () =
  let tr, graph = Lazy.force pipeline in
  List.iter
    (fun (label, needle, replacement) ->
      let mutant =
        Avp_hdl.Elab.elaborate
          (Avp_hdl.Parser.parse
             (Str_replace.replace counter_src needle replacement))
      in
      let tr' = { tr with Avp_fsm.Translate.elab = mutant } in
      let diverged engine =
        match Loop.run ~config:{ small_config with Loop.engine } tr' graph with
        | _ -> Alcotest.failf "%s: divergence not detected" label
        | exception Loop.Diverged msg -> msg
      in
      let scalar = diverged `Scalar and sliced = diverged `Sliced in
      Alcotest.(check bool)
        (label ^ ": first round") true
        (Str_replace.contains scalar "round 0,");
      Alcotest.(check string) (label ^ ": engines agree") scalar sliced)
    [
      ("counts by two", "state + 3'b001", "state + 3'b010");
      ("x after reset", "state <= 3'b000", "state <= state");
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mutator_well_formed;
    QCheck_alcotest.to_alcotest prop_delta_monotone;
    Alcotest.test_case "corpus json round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus file round-trip" `Quick
      test_corpus_file_roundtrip;
    Alcotest.test_case "rerun deterministic" `Quick test_rerun_deterministic;
    Alcotest.test_case "engine invariance" `Quick test_engine_invariance;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "replay identity" `Quick test_replay_identity;
    Alcotest.test_case "replay rejects stale corpora" `Quick
      test_replay_rejects_foreign;
    Alcotest.test_case "divergence from the plan raises" `Quick
      test_divergence_raises;
  ]
