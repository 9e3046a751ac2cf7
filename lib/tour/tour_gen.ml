type step = { src : int; dst : int; choice : int; fresh : bool }
type trace = step array

type stats = {
  num_traces : int;
  edge_traversals : int;
  instructions : int;
  longest_trace_edges : int;
  longest_trace_instructions : int;
  traces_hitting_limit : int;
  gen_time_s : float;
}

type t = { traces : trace array; stats : stats }

(* Distances to the nearest target, for [generate]'s explore phase.  A
   target is a state with an untraversed out-edge; [count.(v)] is v's
   number of untraversed out-edges.  [dist.(v)] is the number of arcs
   from v to the nearest target, [max_int] when none is reachable.

   Targets only ever retire, so distances only grow.  [retire x] brings
   them up to date once [count.(x)] has dropped to 0, in the two phases
   of Ramalingam and Reps for unit weights.  (Raising distances one
   level at a time would count to infinity once the only targets left
   are unreachable.)
   - Phase 1 collects in [set] the states whose distance grows: x, then
     every state whose arcs one level down all lead into the set.
     [live.(u)] counts u's arcs one level down that lead out of the
     set so far; it is valid when [mark.(u) = round], and 0 puts u in
     the set.
   - Phase 2 seeds each collected state from its successors outside
     the set, whose distances are final, then [settle]s the set in
     distance order: the sorted seeds merged with a FIFO of states
     lowered through a settled successor.  A settled state's [live]
     is -1.
   The initial distances are round 1 of [settle], with every state in
   the set and the targets as seeds: a multi-source BFS over the
   reverse arcs. *)
let target_distances (adj : (int * int) array array) count =
  let n = Array.length adj in
  (* Reverse adjacency in CSR form, one entry per arc: the tails of the
     arcs into v are [preds.(k)] for [pred_off.(v) <= k < pred_off.(v + 1)]. *)
  let pred_off = Array.make (n + 1) 0 in
  Array.iter
    (Array.iter (fun (v, _) -> pred_off.(v + 1) <- pred_off.(v + 1) + 1))
    adj;
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v) + pred_off.(v - 1)
  done;
  let preds = Array.make pred_off.(n) 0 in
  let fill = Array.sub pred_off 0 n in
  Array.iteri
    (fun u out ->
      Array.iter
        (fun (v, _) ->
          preds.(fill.(v)) <- u;
          fill.(v) <- fill.(v) + 1)
        out)
    adj;
  let dist = Array.init n (fun v -> if count.(v) > 0 then 0 else max_int) in
  let set = Array.make n 0 in
  let mark = Array.make n 1 in
  let live = Array.make n 0 in
  let round = ref 1 in
  let in_set u = mark.(u) = !round && live.(u) = 0 in
  let queue = Array.make n 0 in
  let settle seeds =
    let head = ref 0 and tail = ref 0 and next_seed = ref 0 in
    while !next_seed < Array.length seeds || !head < !tail do
      let u =
        if
          !head < !tail
          && (!next_seed = Array.length seeds
             || dist.(queue.(!head)) <= dist.(seeds.(!next_seed)))
        then begin
          incr head;
          queue.(!head - 1)
        end
        else begin
          incr next_seed;
          seeds.(!next_seed - 1)
        end
      in
      if live.(u) = 0 then begin
        live.(u) <- -1;
        for k = pred_off.(u) to pred_off.(u + 1) - 1 do
          let p = preds.(k) in
          if in_set p && dist.(p) > dist.(u) + 1 then begin
            dist.(p) <- dist.(u) + 1;
            queue.(!tail) <- p;
            incr tail
          end
        done
      end
    done
  in
  settle
    (Array.of_list (List.filter (fun v -> dist.(v) = 0) (List.init n Fun.id)));
  let retire x =
    incr round;
    let r = !round in
    mark.(x) <- r;
    live.(x) <- 0;
    set.(0) <- x;
    let len = ref 1 and i = ref 0 in
    while !i < !len do
      let w = set.(!i) in
      incr i;
      for k = pred_off.(w) to pred_off.(w + 1) - 1 do
        let u = preds.(k) in
        if dist.(u) = dist.(w) + 1 then begin
          if mark.(u) <> r then begin
            mark.(u) <- r;
            live.(u) <-
              Array.fold_left
                (fun c (v, _) -> if dist.(v) = dist.(w) then c + 1 else c)
                0 adj.(u)
          end;
          live.(u) <- live.(u) - 1;
          if live.(u) = 0 then begin
            set.(!len) <- u;
            incr len
          end
        end
      done
    done;
    let seeds = ref [] in
    for j = 0 to !len - 1 do
      let u = set.(j) in
      let best =
        Array.fold_left
          (fun b (v, _) -> if in_set v then b else min b dist.(v))
          max_int adj.(u)
      in
      if best < max_int then begin
        dist.(u) <- best + 1;
        seeds := u :: !seeds
      end
      else dist.(u) <- max_int
    done;
    settle
      (Array.of_list (List.sort (fun a b -> compare dist.(a) dist.(b)) !seeds))
  in
  (dist, retire)

let generate ?instr_limit ?(instructions_of_edge = fun ~src:_ ~choice:_ -> 1)
    (graph : Avp_enum.State_graph.t) =
  let t0 = Avp_obs.Obs.Clock.now_s () in
  let adj = graph.Avp_enum.State_graph.adj in
  let n = Array.length adj in
  let offsets = Avp_enum.State_graph.edge_offsets graph in
  let total_edges = offsets.(n) in
  let traversed = Array.make total_edges false in
  (* An arc's weight, asked of [instructions_of_edge] once, when the
     arc is first traversed: explore paths only re-walk traversed
     arcs. *)
  let weight = Array.make total_edges 0 in
  let untraversed_left = ref total_edges in
  (* Per-state: count of untraversed out-edges and a monotone cursor
     to the first possibly-untraversed position. *)
  let untraversed_count = Array.map Array.length adj in
  let cursor = Array.make n 0 in
  let dist, retire = target_distances adj untraversed_count in
  let traces = ref [] in
  let num_traces = ref 0 in
  let edge_traversals = ref 0 in
  let instructions = ref 0 in
  let longest_edges = ref 0 in
  let longest_instr = ref 0 in
  let limit_hits = ref 0 in
  let reset = 0 in
  while !untraversed_left > 0 do
    (* One trace, starting from reset, its steps in a buffer that
       doubles as it fills. *)
    let steps = ref [||] in
    let steps_len = ref 0 in
    let trace_instr = ref 0 in
    let fresh_in_trace = ref 0 in
    let state = ref reset in
    let take ~fresh src pos =
      let dst, choice = adj.(src).(pos) in
      let e = offsets.(src) + pos in
      if fresh then begin
        traversed.(e) <- true;
        weight.(e) <- instructions_of_edge ~src ~choice;
        untraversed_count.(src) <- untraversed_count.(src) - 1;
        decr untraversed_left;
        incr fresh_in_trace;
        if untraversed_count.(src) = 0 then retire src
      end;
      let step = { src; dst; choice; fresh } in
      if !steps_len = Array.length !steps then begin
        let grown = Array.make (max 64 (2 * !steps_len)) step in
        Array.blit !steps 0 grown 0 !steps_len;
        steps := grown
      end;
      !steps.(!steps_len) <- step;
      incr steps_len;
      trace_instr := !trace_instr + weight.(e);
      state := dst
    in
    let over_limit () =
      (* The limit never closes a trace before it has covered at
         least one fresh edge; otherwise short limits could loop
         forever re-walking the same prefix. *)
      match instr_limit with
      | Some l when !trace_instr >= l && !fresh_in_trace > 0 -> true
      | Some _ | None -> false
    in
    let continue_trace = ref true in
    while !continue_trace do
      (* Depth-first phase: follow untraversed edges greedily. *)
      while untraversed_count.(!state) > 0 && not (over_limit ()) do
        let s = !state in
        while traversed.(offsets.(s) + cursor.(s)) do
          cursor.(s) <- cursor.(s) + 1
        done;
        take ~fresh:true s cursor.(s)
      done;
      if over_limit () then begin
        incr limit_hits;
        continue_trace := false
      end
      else if dist.(!state) = max_int then continue_trace := false
      else
        (* Explore phase: walk down the distances to the nearest
           target, taking at each state the first arc one level down.
           That is the lexicographically first shortest path by arc
           position, the one a BFS scanning arcs in order finds.  The
           path's states have no untraversed out-edge, so its arcs
           are all traversed and no distance changes on the way. *)
        while dist.(!state) > 0 do
          let s = !state in
          let out = adj.(s) in
          let pos = ref 0 in
          while dist.(fst out.(!pos)) <> dist.(s) - 1 do
            incr pos
          done;
          take ~fresh:false s !pos
        done
    done;
    if !steps_len > 0 then begin
      traces := Array.sub !steps 0 !steps_len :: !traces;
      incr num_traces;
      edge_traversals := !edge_traversals + !steps_len;
      instructions := !instructions + !trace_instr;
      if !steps_len > !longest_edges then longest_edges := !steps_len;
      if !trace_instr > !longest_instr then longest_instr := !trace_instr
    end
    else
      (* A trace with no steps means reset itself has no reachable
         untraversed edge, yet some remain: impossible for graphs
         enumerated from reset, but guard against a malformed input. *)
      untraversed_left := 0
  done;
  let stats =
    {
      num_traces = !num_traces;
      edge_traversals = !edge_traversals;
      instructions = !instructions;
      longest_trace_edges = !longest_edges;
      longest_trace_instructions = !longest_instr;
      traces_hitting_limit = !limit_hits;
      gen_time_s = Avp_obs.Obs.Clock.now_s () -. t0;
    }
  in
  if Avp_obs.Obs.enabled () then
    Avp_obs.Obs.complete ~cat:"tour" "tour.generate" ~dur_s:stats.gen_time_s
      ~args:
        [
          ("traces", Avp_obs.Obs.Int stats.num_traces);
          ("edge_traversals", Avp_obs.Obs.Int stats.edge_traversals);
          ("instructions", Avp_obs.Obs.Int stats.instructions);
        ];
  { traces = Array.of_list (List.rev !traces); stats }

let walk (graph : Avp_enum.State_graph.t) (choices : int array) =
  let cur = ref (Avp_enum.State_graph.reset_id graph) in
  Array.map
    (fun choice ->
      let src = !cur in
      let dst =
        match Avp_enum.State_graph.successor graph src choice with
        | Some id -> id
        | None ->
          invalid_arg
            (Printf.sprintf
               "Tour_gen.walk: the model's successor of state %d under \
                choice %d is not a state of the graph"
               src choice)
      in
      cur := dst;
      { src; dst; choice; fresh = false })
    choices

let of_traces traces =
  let total = Array.fold_left (fun n t -> n + Array.length t) 0 traces in
  let longest = Array.fold_left (fun n t -> max n (Array.length t)) 0 traces in
  {
    traces;
    stats =
      {
        num_traces = Array.length traces;
        edge_traversals = total;
        instructions = total;
        longest_trace_edges = longest;
        longest_trace_instructions = longest;
        traces_hitting_limit = 0;
        gen_time_s = 0.;
      };
  }

let covers_all_edges (graph : Avp_enum.State_graph.t) t =
  let adj = graph.Avp_enum.State_graph.adj in
  let offsets = Avp_enum.State_graph.edge_offsets graph in
  let num_edges = offsets.(Array.length adj) in
  (* One bit per edge at its dense [edge_offsets] index — no per-step
     tuple boxing or hashing.  Edges of a state are stored in
     ascending choice-index order (each choice appears at most once),
     so a step's edge position is a binary search away. *)
  let seen = Bytes.make ((num_edges + 7) / 8) '\000' in
  let edge_pos src dst choice =
    if src < 0 || src >= Array.length adj then None
    else begin
      let out = adj.(src) in
      let lo = ref 0 and hi = ref (Array.length out) in
      while !hi - !lo > 0 do
        let mid = (!lo + !hi) / 2 in
        let _, c = out.(mid) in
        if c < choice then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length out then
        let d, c = out.(!lo) in
        if c = choice && d = dst then Some !lo else None
      else None
    end
  in
  Array.iter
    (fun trace ->
      Array.iter
        (fun s ->
          match edge_pos s.src s.dst s.choice with
          | Some pos ->
            let e = offsets.(s.src) + pos in
            let byte = Char.code (Bytes.get seen (e lsr 3)) in
            Bytes.set seen (e lsr 3) (Char.chr (byte lor (1 lsl (e land 7))))
          | None -> ())
        trace)
    t.traces;
  let ok = ref true in
  let full_bytes = num_edges lsr 3 in
  for b = 0 to full_bytes - 1 do
    if Bytes.get seen b <> '\255' then ok := false
  done;
  let rem = num_edges land 7 in
  if rem > 0 then begin
    let mask = (1 lsl rem) - 1 in
    if Char.code (Bytes.get seen full_bytes) land mask <> mask then
      ok := false
  end;
  !ok

let is_valid (graph : Avp_enum.State_graph.t) t =
  let adj = graph.Avp_enum.State_graph.adj in
  Array.for_all
    (fun trace ->
      let cur = ref 0 in
      Array.for_all
        (fun s ->
          s.src = !cur
          && Array.exists (fun (d, c) -> d = s.dst && c = s.choice) adj.(s.src)
          && begin
               cur := s.dst;
               true
             end)
        trace)
    t.traces

let report_section (s : stats) : Avp_obs.Report.tour_section =
  {
    Avp_obs.Report.traces = s.num_traces;
    traversals = s.edge_traversals;
    instructions = s.instructions;
    longest_edges = s.longest_trace_edges;
    longest_instructions = s.longest_trace_instructions;
    limit_hits = s.traces_hitting_limit;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "traces=%d traversals=%d instructions=%d longest=%d edges \
     (%d instr) limit-hits=%d time=%.2fs"
    s.num_traces s.edge_traversals s.instructions s.longest_trace_edges
    s.longest_trace_instructions s.traces_hitting_limit s.gen_time_s
