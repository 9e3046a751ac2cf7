open Avp_fsm
module Obs = Avp_obs.Obs
module Coverage = Avp_obs.Coverage

(* The coverage-guided mutational loop.

   Rounds of [batch] candidates: each candidate is either a fresh
   random entry (while the corpus is empty) or a mutation of a corpus
   seed picked by the energy schedule.  A round plans every candidate
   as a model walk, executes the batch on the chosen engine
   (lane-parallel on the sliced one) checking that the design takes
   exactly the planned walks, then folds the plans sequentially in
   batch order.  A candidate is kept iff committing its walk's marks
   moves the coverage counters — new state, new arc, or new (state,
   input-class) pair ({!Coverage.delta}).  Candidates that add
   nothing commit nothing (marking already-seen items is idempotent),
   so the kept corpus's coverage IS the run's coverage — the replay
   invariant behind [--replay].

   Determinism: candidate generation draws from one seeded PRNG
   before evaluation, evaluation is positionally indexed, and the
   fold is sequential in batch order — so the final corpus and
   coverage set are byte-identical for either engine.

   Energy schedule: a corpus seed's energy is the sum over its arcs
   of 1/(number of corpus entries that hit the arc) — seeds holding
   rare arcs are favored as mutation parents, pushing the walk toward
   the frontier instead of re-rolling the hot core. *)

type config = {
  seed : int;
  budget : int;  (** candidate executions, initial population included *)
  batch : int;
  init_len : int;
  max_len : int;
  engine : [ `Scalar | `Sliced ];
  domains : int;  (* ignored; kept because perfbench/main.ml sets it *)
}

let default_config =
  {
    seed = 0;
    budget = 512;
    batch = 31;
    init_len = 16;
    max_len = 96;
    engine = `Sliced;
    domains = 1;
  }

type kept = {
  entry : Corpus.entry;
  trace : Avp_tour.Tour_gen.trace;
  round : int;
  gain : Coverage.counts;  (** the delta that earned the keep *)
}

type result = {
  design : string;
  config : config;
  rounds : int;
  executed : int;
  kept : kept array;
  lengths : int array;  (** per executed candidate, in order *)
  coverage : Coverage.t;
  explore_cycles : int;
}

(* Commit one candidate's walk — the walk its execution was checked
   against — to coverage.  A (state, class) pair seen for the first
   time bumps its state's saturation counter. *)
let commit cov pair_counts (trace : Avp_tour.Tour_gen.trace) =
  Coverage.mark_state cov trace.(0).Avp_tour.Tour_gen.src;
  Array.iter
    (fun { Avp_tour.Tour_gen.src; dst; choice = cls; _ } ->
      if not (Coverage.seen_pair cov ~state:src ~cls) then
        pair_counts.(src) <- pair_counts.(src) + 1;
      Coverage.mark_state cov dst;
      Coverage.mark_arc cov ~src ~dst;
      Coverage.mark_pair cov ~state:src ~cls)
    trace

(* Ids of the distinct declared arcs of a trace, in first-occurrence
   order.  [mark] is a scratch byte per arc id, all zero between
   calls. *)
let trace_arcs cov mark (trace : Avp_tour.Tour_gen.trace) =
  let acc = ref [] in
  Array.iter
    (fun (s : Avp_tour.Tour_gen.step) ->
      let a =
        Coverage.arc_id cov ~src:s.Avp_tour.Tour_gen.src
          ~dst:s.Avp_tour.Tour_gen.dst
      in
      if a >= 0 && Bytes.get mark a = '\000' then begin
        Bytes.set mark a '\001';
        acc := a :: !acc
      end)
    trace;
  let arcs = Array.of_list (List.rev !acc) in
  Array.iter (fun a -> Bytes.set mark a '\000') arcs;
  arcs

exception Diverged of string

type state = {
  cov : Coverage.t;
  pair_counts : int array;
      (* per state id: distinct input classes it has been driven with
         — the saturation measure the extension mutator cuts by *)
  mutable store : (kept * int array) array;
      (* in keep order: each kept entry with the ids of its distinct
         declared arcs, the energy schedule's input *)
  arc_hits : int array;  (* per arc id: kept entries hitting it *)
  arc_mark : Bytes.t;  (* [trace_arcs]'s scratch *)
  mutable lens : int list;  (* reversed *)
  mutable executed : int;
  mutable explore_cycles : int;
}

let fold_candidate st ~round (p : Exec.planned) =
  let len = Array.length p.Exec.choices in
  st.executed <- st.executed + 1;
  st.explore_cycles <- st.explore_cycles + len;
  st.lens <- len :: st.lens;
  let before = Coverage.counts st.cov in
  commit st.cov st.pair_counts p.Exec.trace;
  let gain = Coverage.delta ~before ~after:(Coverage.counts st.cov) in
  let keep = Coverage.progress gain in
  if keep then begin
    let arcs = trace_arcs st.cov st.arc_mark p.Exec.trace in
    Array.iter (fun a -> st.arc_hits.(a) <- st.arc_hits.(a) + 1) arcs;
    let k = { entry = p.Exec.choices; trace = p.Exec.trace; round; gain } in
    st.store <- Array.append st.store [| (k, arcs) |]
  end;
  keep

(* The parent table of one round.  Energies change only when the fold
   keeps a candidate, so they are summed once per round, in keep
   order. *)
type parents = {
  seeds : kept array;
  weights : float array;
  total : float;
}

let parents st =
  let weights =
    Array.map
      (fun (_, arcs) ->
        Array.fold_left
          (fun s a -> s +. (1.0 /. float_of_int st.arc_hits.(a)))
          0.0 arcs)
      st.store
  in
  {
    seeds = Array.map fst st.store;
    weights;
    total = Array.fold_left ( +. ) 0.0 weights;
  }

(* Energy-weighted parent pick: cumulative scan under one PRNG draw. *)
let pick_parent rng p =
  let n = Array.length p.seeds in
  if p.total <= 0.0 then p.seeds.(Random.State.int rng n)
  else begin
    let r = Random.State.float rng p.total in
    let acc = ref 0.0 in
    let chosen = ref (n - 1) in
    (try
       for k = 0 to n - 1 do
         acc := !acc +. p.weights.(k);
         if r < !acc then begin
           chosen := k;
           raise Exit
         end
       done
     with Exit -> ());
    p.seeds.(!chosen)
  end

let finish_result ~tr ~config ~rounds st =
  {
    design = tr.Translate.elab.Avp_hdl.Elab.top;
    config;
    rounds;
    executed = st.executed;
    kept = Array.map fst st.store;
    lengths = Array.of_list (List.rev st.lens);
    coverage = st.cov;
    explore_cycles = st.explore_cycles;
  }

let fresh_state graph =
  let cov = Coverage.of_graph graph.Avp_enum.State_graph.adj in
  let arcs = (Coverage.summary cov).Coverage.arcs_total in
  {
    cov;
    pair_counts =
      Array.make (Array.length graph.Avp_enum.State_graph.states) 0;
    store = [||];
    arc_hits = Array.make arcs 0;
    arc_mark = Bytes.make arcs '\000';
    lens = [];
    executed = 0;
    explore_cycles = 0;
  }

let round_span ~round ~t0 st =
  if Obs.enabled () then begin
    let c = Coverage.counts st.cov in
    Obs.complete ~cat:"fuzz" "fuzz.round"
      ~dur_s:(Obs.Clock.now_s () -. t0)
      ~args:
        [
          ("round", Obs.Int round);
          ("flow_out", Obs.Int 0);
          ("executed", Obs.Int st.executed);
          ("kept", Obs.Int (Array.length st.store));
          ("arcs", Obs.Int c.Coverage.c_arcs);
          ("pairs", Obs.Int c.Coverage.c_pairs);
        ]
  end

(* One round, shared by growing runs and replays: plan the
   candidates, check their execution against the plans, fold them in
   batch order, and close the round's span (opened at [t0]).  Returns
   which candidates were kept.  [map] is the run's one condition
   map. *)
let play_round ?progress ~config ~round ~t0 ~map st (tr : Translate.result)
    graph candidates =
  let planned = Array.map (Exec.plan graph) candidates in
  (match
     Exec.run ~engine:config.engine ?progress tr ~map graph planned
   with
   | Ok () -> ()
   | Error (i, detail) ->
     raise
       (Diverged
          (Printf.sprintf
             "fuzz: round %d, candidate %d left its model walk (%s) — \
              translation/replay bug"
             round i detail)));
  let kept =
    Array.init (Array.length planned) (fun i ->
        fold_candidate st ~round planned.(i))
  in
  round_span ~round ~t0 st;
  kept

let run ?progress ~config (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) =
  let model = tr.Translate.model in
  let sp = Mutator.space ~max_len:config.max_len model in
  let rng = Random.State.make [| 0x66757a7a; config.seed |] in
  let map = Avp_vectors.Condition_map.of_translation tr in
  let st = fresh_state graph in
  let budget = max 0 config.budget in
  let batch = max 1 config.batch in
  let round = ref 0 in
  let num_choices = Model.num_choices model in
  (* Up to 96 seeded draws for an input class not yet paired with
     [state_id] — pure coverage bookkeeping, no graph peeking. *)
  let unseen_class st state_id =
    let rec try_ k =
      if k = 0 then None
      else begin
        let c = Random.State.int rng num_choices in
        if not (Coverage.seen_pair st.cov ~state:state_id ~cls:c) then Some c
        else try_ (k - 1)
      end
    in
    try_ 96
  in
  (* The workhorse: cut the parent at the earliest position whose
     state still has input classes it has never been driven with
     (by the per-state saturation counters) and append a steered
     suffix from there — each appended cycle picks, three times out
     of four, a class unseen at the state the walk stands in.  The
     shortest useful prefix means nearly every executed cycle sweeps
     new (state, class) pairs; the walk uses the graph's successors
     only to know where it stands, exactly as {!Exec.plan} will when
     the candidate executes. *)
  let frontier_extend st ~corpus (k : kept) =
    let n = Array.length k.trace in
    (* stand at the least-saturated state along the parent's walk
       (earliest on ties); [cut] is how many parent cycles to keep to
       get there.  Rare states have few tried classes, so their
       untried out-conditions — hence undiscovered arcs — concentrate
       exactly where the cut lands the walk. *)
    let cut =
      let state_at i =
        if i = n then k.trace.(n - 1).Avp_tour.Tour_gen.dst
        else k.trace.(i).Avp_tour.Tour_gen.src
      in
      if n = 0 then None
      else begin
        let best = ref 0 and best_count = ref max_int in
        for i = 0 to n do
          let c = st.pair_counts.(state_at i) in
          if c < !best_count then begin
            best := i;
            best_count := c
          end
        done;
        if !best_count >= num_choices then None else Some !best
      end
    in
    match cut with
    | None -> Mutator.mutate sp rng ~corpus k.entry
    | Some cut when cut >= config.max_len ->
      Mutator.mutate sp rng ~corpus k.entry
    | Some cut ->
      let room = config.max_len - cut in
      let klen = max 1 (room - Random.State.int rng (min 16 room)) in
      let suffix = Array.make klen 0 in
      let cur =
        ref
          (if cut = 0 then
             if n > 0 then k.trace.(0).Avp_tour.Tour_gen.src
             else Avp_enum.State_graph.reset_id graph
           else k.trace.(cut - 1).Avp_tour.Tour_gen.dst)
      in
      for i = 0 to klen - 1 do
        let c =
          if Random.State.int rng 8 = 0 then Random.State.int rng num_choices
          else
            match unseen_class st !cur with
            | Some c -> c
            | None -> Random.State.int rng num_choices
        in
        suffix.(i) <- c;
        match Avp_enum.State_graph.successor graph !cur c with
        | Some id -> cur := id
        | None -> ()
      done;
      Array.append (Array.sub k.entry 0 cut) suffix
  in
  while st.executed < budget do
    let t0 = Obs.Clock.now_s () in
    let bsize = min batch (budget - st.executed) in
    (* Candidate generation consumes the PRNG sequentially, before any
       parallel evaluation — the determinism anchor. *)
    let parents = parents st in
    let corpus = Array.map (fun k -> k.entry) parents.seeds in
    let fresh_len () =
      config.init_len
      + Random.State.int rng (max 1 (config.max_len - config.init_len + 1))
    in
    let candidates =
      Array.init bsize (fun _ ->
          if Array.length parents.seeds = 0 then
            Mutator.random_entry sp rng ~len:config.init_len
          else
            match Random.State.int rng 8 with
            | 0 ->
              (* an exploration floor: fresh random walks keep the
                 schedule from collapsing onto the corpus's
                 neighbourhood *)
              Mutator.random_entry sp rng ~len:(fresh_len ())
            | 1 ->
              Mutator.mutate sp rng ~corpus (pick_parent rng parents).entry
            | _ -> frontier_extend st ~corpus (pick_parent rng parents))
    in
    ignore
      (play_round ?progress ~config ~round:!round ~t0 ~map st tr graph
         candidates);
    incr round
  done;
  finish_result ~tr ~config ~rounds:!round st

let tours_of_kept (r : result) =
  Avp_tour.Tour_gen.of_traces (Array.map (fun k -> k.trace) r.kept)

let replay ?progress ~config (c : Corpus.t) (tr : Translate.result)
    (graph : Avp_enum.State_graph.t) =
  let model = tr.Translate.model in
  let top = tr.Translate.elab.Avp_hdl.Elab.top in
  if c.Corpus.design <> top then
    Error
      (Printf.sprintf "corpus was grown on %S, not %S" c.Corpus.design top)
  else if c.Corpus.num_choices <> Model.num_choices model then
    Error "corpus choice space does not match the design"
  else if
    not
      (Array.for_all
         (fun e ->
           Array.length e >= 1
           && Array.for_all
                (fun x -> x >= 0 && x < c.Corpus.num_choices)
                e)
         c.Corpus.entries)
  then Error "corpus contains a malformed entry"
  else begin
    let map = Avp_vectors.Condition_map.of_translation tr in
    let st = fresh_state graph in
    let batch = max 1 config.batch in
    let n = Array.length c.Corpus.entries in
    let rounds = (n + batch - 1) / batch in
    let stale = ref None in
    for round = 0 to rounds - 1 do
      let t0 = Obs.Clock.now_s () in
      let b0 = round * batch in
      let kept =
        play_round ?progress ~config ~round ~t0 ~map st tr graph
          (Array.sub c.Corpus.entries b0 (min batch (n - b0)))
      in
      Array.iteri
        (fun i k -> if (not k) && !stale = None then stale := Some (b0 + i))
        kept
    done;
    match !stale with
    | Some i ->
      Error
        (Printf.sprintf
           "corpus entry %d added no coverage on replay — stale corpus or \
            wrong design"
           i)
    | None -> Ok (finish_result ~tr ~config ~rounds st)
  end

let corpus (r : result) (tr : Translate.result) =
  {
    Corpus.design = r.design;
    seed = r.config.seed;
    num_choices = Model.num_choices tr.Translate.model;
    entries = Array.map (fun k -> k.entry) r.kept;
  }
