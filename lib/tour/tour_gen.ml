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

let generate ?instr_limit ?(instructions_of_edge = fun ~src:_ ~choice:_ -> 1)
    (graph : Avp_enum.State_graph.t) =
  let t0 = Avp_obs.Obs.Clock.now_s () in
  let adj = graph.Avp_enum.State_graph.adj in
  let n = Array.length adj in
  let offsets = Avp_enum.State_graph.edge_offsets graph in
  let total_edges = offsets.(n) in
  let traversed = Array.make total_edges false in
  let untraversed_left = ref total_edges in
  (* Per-state: count of untraversed out-edges and a monotone cursor
     to the first possibly-untraversed position. *)
  let untraversed_count = Array.map Array.length adj in
  let cursor = Array.make n 0 in
  (* Reusable epoch-stamped BFS state for the explore phase: parent
     pointers record the (node, out-position) the BFS arrived from, so
     no per-call allocation and no edge-position lookup afterwards. *)
  let stamp = Array.make n 0 in
  let epoch = ref 0 in
  let parent_node = Array.make n (-1) in
  let parent_pos = Array.make n (-1) in
  let bfs_queue = Queue.create () in
  (* Shortest path (as (node, position) pairs, in order) from [src] to
     the nearest node with an untraversed out-edge; [] when none. *)
  let explore_path src =
    incr epoch;
    let e = !epoch in
    Queue.clear bfs_queue;
    stamp.(src) <- e;
    Queue.add src bfs_queue;
    let found = ref (-1) in
    while !found < 0 && not (Queue.is_empty bfs_queue) do
      let u = Queue.pop bfs_queue in
      let out = adj.(u) in
      let k = Array.length out in
      let i = ref 0 in
      while !found < 0 && !i < k do
        let v, _ = out.(!i) in
        if stamp.(v) <> e then begin
          stamp.(v) <- e;
          parent_node.(v) <- u;
          parent_pos.(v) <- !i;
          if untraversed_count.(v) > 0 then found := v
          else Queue.add v bfs_queue
        end;
        incr i
      done
    done;
    if !found < 0 then []
    else begin
      let rec build v acc =
        if v = src then acc
        else build parent_node.(v) ((parent_node.(v), parent_pos.(v)) :: acc)
      in
      build !found []
    end
  in
  let traces = ref [] in
  let num_traces = ref 0 in
  let edge_traversals = ref 0 in
  let instructions = ref 0 in
  let longest_edges = ref 0 in
  let longest_instr = ref 0 in
  let limit_hits = ref 0 in
  let reset = 0 in
  while !untraversed_left > 0 do
    (* One trace, starting from reset. *)
    let steps = ref [] in
    let steps_len = ref 0 in
    let trace_instr = ref 0 in
    let fresh_in_trace = ref 0 in
    let state = ref reset in
    let take ~fresh (src, pos) =
      let dst, choice = adj.(src).(pos) in
      if fresh then begin
        traversed.(offsets.(src) + pos) <- true;
        untraversed_count.(src) <- untraversed_count.(src) - 1;
        decr untraversed_left;
        incr fresh_in_trace
      end;
      steps := { src; dst; choice; fresh } :: !steps;
      incr steps_len;
      let w = instructions_of_edge ~src ~choice in
      trace_instr := !trace_instr + w;
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
        take ~fresh:true (s, cursor.(s))
      done;
      if over_limit () then begin
        incr limit_hits;
        continue_trace := false
      end
      else begin
        (* Explore phase: shortest path to the nearest state that
           still has an untraversed out-edge.  By minimality every
           edge of the path is already traversed. *)
        match explore_path !state with
        | [] -> continue_trace := false
        | path -> List.iter (take ~fresh:false) path
      end
    done;
    if !steps_len > 0 then begin
      let arr = Array.of_list (List.rev !steps) in
      traces := arr :: !traces;
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

let walk (model : Avp_fsm.Model.t) (graph : Avp_enum.State_graph.t)
    (choices : int array) =
  let cur = ref (Avp_enum.State_graph.reset_id graph) in
  Array.map
    (fun choice ->
      let src = !cur in
      let nxt =
        model.Avp_fsm.Model.next
          graph.Avp_enum.State_graph.states.(src)
          (Avp_fsm.Model.choice_of_index model choice)
      in
      let dst =
        match Avp_enum.State_graph.find_state graph nxt with
        | Some id -> id
        | None ->
          (* Enumeration is total over reachable states. *)
          assert false
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

let pp_stats ppf s =
  Format.fprintf ppf
    "traces=%d traversals=%d instructions=%d longest=%d edges \
     (%d instr) limit-hits=%d time=%.2fs"
    s.num_traces s.edge_traversals s.instructions s.longest_trace_edges
    s.longest_trace_instructions s.traces_hitting_limit s.gen_time_s
