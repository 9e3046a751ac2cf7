open Avp_fsm
module Obs = Avp_obs.Obs

type stats = {
  num_states : int;
  num_edges : int;
  state_bits : int;
  elapsed_s : float;
  heap_mb : float;
  domains : int;
  level_times : (int * float) array;
}

(* ------------------------------------------------------------------ *)
(* Packed state keys                                                  *)
(* ------------------------------------------------------------------ *)

(* Pack a valuation into a byte buffer; one byte per variable when the
   domain fits, two otherwise.  Returns the key size and an
   allocation-free [pack_into]. *)
let make_packer (model : Model.t) =
  let wide =
    Array.map
      (fun v ->
        let c = Model.card v in
        if c > 65536 then
          invalid_arg
            (Printf.sprintf
               "State_graph: variable %s has cardinality %d, beyond the \
                two-byte packed-key limit of 65536"
               v.Model.name c);
        c > 256)
      model.Model.state_vars
  in
  let key_size =
    Array.fold_left (fun acc w -> acc + if w then 2 else 1) 0 wide
  in
  let pack_into (valuation : int array) (b : Bytes.t) =
    let pos = ref 0 in
    Array.iteri
      (fun i v ->
        if Array.unsafe_get wide i then begin
          Bytes.unsafe_set b !pos (Char.unsafe_chr (v land 0xff));
          Bytes.unsafe_set b (!pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
          pos := !pos + 2
        end
        else begin
          Bytes.unsafe_set b !pos (Char.unsafe_chr (v land 0xff));
          incr pos
        end)
      valuation
  in
  (key_size, pack_into)

(* ------------------------------------------------------------------ *)
(* Sharded intern table                                               *)
(* ------------------------------------------------------------------ *)

(* Packed key -> state id.  Sharded by the top bits of the structural
   hash (the low bits index buckets inside each [Hashtbl], so reusing
   them for shard selection would leave most buckets empty).  The
   table is read-mostly: during a parallel level every domain probes
   it freely while nobody writes; all insertions happen in the
   single-threaded merge between levels, so no locking is needed. *)

let shard_bits = 6

type index = {
  key_size : int;
  pack_into : int array -> Bytes.t -> unit;
  shards : (Bytes.t, int) Hashtbl.t array;
}

let index_create model =
  let key_size, pack_into = make_packer model in
  {
    key_size;
    pack_into;
    shards = Array.init (1 lsl shard_bits) (fun _ -> Hashtbl.create 256);
  }

let shard_of idx key =
  (* Hashtbl.hash yields 30 bits; take the top ones. *)
  Array.unsafe_get idx.shards (Hashtbl.hash key lsr (30 - shard_bits))

let index_find idx key = Hashtbl.find_opt (shard_of idx key) key
let index_add idx key id = Hashtbl.replace (shard_of idx key) key id

type t = {
  model : Model.t;
  states : int array array;
  adj : (int * int) array array;
  stats : stats;
  index : index;
}

exception Too_many_states of int

(* Growable array of states. *)
module Dyn = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 1024 dummy; len = 0; dummy }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) t.dummy in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.data.(i)
  let to_array t = Array.sub t.data 0 t.len
end

(* ------------------------------------------------------------------ *)
(* Decision-tree expansion                                            *)
(* ------------------------------------------------------------------ *)

(* A state's successors come from a depth-first walk of its decision
   tree.  The transition reads choices through [read] (the contract of
   [Model.t.next_into]): the first read of an unread variable branches
   on it, value 0 first, and each run of the transition ends at a leaf.
   A leaf stands for a cube, the choice indices that agree with the
   values read on its path; they all share the leaf's successor, and
   the cube's lowest index has every unread variable at 0.  Each choice
   index lies in exactly one cube.  Backtracking advances the deepest
   read variable that still has a value left and forgets the ones read
   after it.

   Leaves are written into per-choice slots and merged in index order
   afterwards; depth-first order is not index order, so nothing is
   interned during the walk.  A slot holds a state id, [fresh] (the
   successor is not interned yet; its valuation is in the matching
   [new_vals] slot) or [unset] (no cube starts there). *)
let fresh = -1
let unset = -2

(* [expander model index ~all_conditions] returns [expand cur dst_ids
   new_vals base], which fills slots [base, base + num_choices) for
   state [cur] against the current contents of [index].  One expander
   per domain: it owns its scratch. *)
let expander (model : Model.t) (index : index) ~all_conditions =
  let card = Array.map Model.card model.Model.choice_vars in
  let nc = Array.length card in
  let stride = Array.make nc 1 in
  for i = nc - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * card.(i + 1)
  done;
  let num_choices = Model.num_choices model in
  let vals = Array.make nc 0 in
  let is_read = Array.make nc false in
  let order = Array.make nc 0 in
  let depth = ref 0 in
  let read i =
    if not is_read.(i) then begin
      is_read.(i) <- true;
      order.(!depth) <- i;
      incr depth
    end;
    vals.(i)
  in
  let rec backtrack () =
    !depth > 0
    &&
    let i = order.(!depth - 1) in
    if vals.(i) + 1 < card.(i) then begin
      vals.(i) <- vals.(i) + 1;
      true
    end
    else begin
      vals.(i) <- 0;
      is_read.(i) <- false;
      decr depth;
      backtrack ()
    end
  in
  (* Write a leaf into its cube, from variable [i] on: into every index
     under [all_conditions], else into the lowest (unread variables at
     0) only. *)
  let rec write_cube dst_ids new_vals id v i slot =
    if i = nc then begin
      dst_ids.(slot) <- id;
      if id = fresh then new_vals.(slot) <- v
    end
    else if is_read.(i) then
      write_cube dst_ids new_vals id v (i + 1) (slot + (vals.(i) * stride.(i)))
    else if all_conditions then
      for x = 0 to card.(i) - 1 do
        write_cube dst_ids new_vals id v (i + 1) (slot + (x * stride.(i)))
      done
    else write_cube dst_ids new_vals id v (i + 1) slot
  in
  let nxt = Array.make (Array.length model.Model.reset) 0 in
  let key = Bytes.create index.key_size in
  (* This expansion's successors the index does not know yet, so that
     each is copied once per state rather than once per leaf. *)
  let new_succs : (Bytes.t, int array) Hashtbl.t = Hashtbl.create 16 in
  let leaf_val = ref [||] in
  fun cur dst_ids new_vals base ->
    Array.fill dst_ids base num_choices unset;
    Hashtbl.clear new_succs;
    let more = ref true in
    while !more do
      model.Model.next_into cur read nxt;
      index.pack_into nxt key;
      let id =
        match index_find index key with
        | Some id -> id
        | None ->
          (match Hashtbl.find_opt new_succs key with
           | Some v -> leaf_val := v
           | None ->
             let v = Array.copy nxt in
             Hashtbl.add new_succs (Bytes.copy key) v;
             leaf_val := v);
          fresh
      in
      write_cube dst_ids new_vals id !leaf_val 0 base;
      more := backtrack ()
    done

let default_domains () =
  match Sys.getenv_opt "AVP_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Upper bound on the successor slots buffered per parallel batch —
   bounds the merge arrays to a few MB regardless of model size. *)
let batch_edge_cap = 1 lsl 20

(* Graphs below this many states enumerate sequentially even when
   several domains were requested: spawning domains and running the
   batch merge costs more than the expansion itself on small graphs
   (the default PP preset's 649 states ran at 0.64x/0.44x of the
   sequential time on 2/4 domains).  Enumeration that outgrows the
   threshold switches to the parallel path mid-run, from the same
   frontier — the result is bit-identical either way. *)
let default_parallel_threshold = 4096

let enumerate ?(all_conditions = false) ?(max_states = 5_000_000) ?domains
    ?(parallel_threshold = default_parallel_threshold) ?progress
    (model : Model.t) =
  let t0 = Obs.Clock.now_s () in
  (* Telemetry is per BFS level / batch, never per state: with spans
     off this adds one Atomic.get per level, so -j throughput is
     unchanged (the 3%-overhead budget in DESIGN.md). *)
  let level_span ?(extra = []) kind ~sources ~dur_s =
    if Obs.enabled () then
      Obs.complete ~cat:"enum" kind ~dur_s
        ~args:(("sources", Obs.Int sources) :: extra);
    match progress with
    | Some p -> Avp_obs.Progress.tick ~n:sources p
    | None -> ()
  in
  let requested =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  (* Transition functions that are not safe to share (e.g. they step a
     single HDL simulator instance) enumerate sequentially. *)
  let domains = if model.Model.parallel_safe then requested else 1 in
  let index = index_create model in
  let key_size = index.key_size and pack_into = index.pack_into in
  let states = Dyn.create [||] in
  let adj = Dyn.create [||] in
  let num_choices = Model.num_choices model in
  let edge_count = ref 0 in
  let level_times = ref [] in
  (* Intern the reset state as id 0. *)
  let reset = Array.copy model.Model.reset in
  let reset_key = Bytes.create key_size in
  pack_into reset reset_key;
  index_add index reset_key 0;
  Dyn.push states reset;
  (* Merge-side scratch, shared by both paths (single-threaded use). *)
  let merge_key = Bytes.create key_size in
  let seen_dst : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] in
  let record_edge dst ci =
    let record =
      if all_conditions then true
      else if Hashtbl.mem seen_dst dst then false
      else begin
        Hashtbl.add seen_dst dst ();
        true
      end
    in
    if record then begin
      out := (dst, ci) :: !out;
      incr edge_count
    end
  in
  (* Intern a freshly discovered valuation during a merge; takes
     ownership of [valuation] (already a private copy). *)
  let intern_new valuation =
    pack_into valuation merge_key;
    match index_find index merge_key with
    | Some id -> id
    | None ->
      let id = states.Dyn.len in
      if id >= max_states then raise (Too_many_states max_states);
      index_add index (Bytes.copy merge_key) id;
      Dyn.push states valuation;
      id
  in
  (* Turn one source's slots into its adjacency row.  Walking them in
     choice-index order gives each successor the lowest index reaching
     it and interns new states in index order (DESIGN.md, "Parallel
     enumeration"). *)
  let merge_source dst_ids new_vals base =
    Hashtbl.reset seen_dst;
    out := [];
    for ci = 0 to num_choices - 1 do
      let d = dst_ids.(base + ci) in
      if d >= 0 then record_edge d ci
      else if d = fresh then begin
        let v = new_vals.(base + ci) in
        new_vals.(base + ci) <- [||];
        record_edge (intern_new v) ci
      end
    done;
    Dyn.push adj (Array.of_list (List.rev !out))
  in
  (* ---------------------------------------------------------------- *)
  (* Sequential path: the reference semantics.  BFS in id order, each *)
  (* source expanded and merged before the next, so successors append *)
  (* at the end and ids are discovery order.                          *)
  (* ---------------------------------------------------------------- *)
  let frontier = ref 0 in
  let run_sequential ~stop_at () =
    let expand = expander model index ~all_conditions in
    let dst_ids = Array.make num_choices unset in
    let new_vals = Array.make num_choices [||] in
    while !frontier < states.Dyn.len && states.Dyn.len < stop_at do
      let level_end = states.Dyn.len in
      let level_size = level_end - !frontier in
      let lt0 = Obs.Clock.now_s () in
      while !frontier < level_end do
        let src = !frontier in
        incr frontier;
        expand (Dyn.get states src) dst_ids new_vals 0;
        merge_source dst_ids new_vals 0
      done;
      let dt = Obs.Clock.now_s () -. lt0 in
      level_times := (level_size, dt) :: !level_times;
      level_span "enum.level" ~sources:level_size ~dur_s:dt
    done
  in
  (* ---------------------------------------------------------------- *)
  (* Parallel path: batch-synchronous BFS.  Each batch of pending     *)
  (* sources is split across the domains; every domain expands its    *)
  (* slice against the frozen intern table into its sources' slots,   *)
  (* and a deterministic single-threaded merge — in (source id,       *)
  (* choice index) order, exactly the sequential processing order —   *)
  (* assigns ids to the genuinely new states.  State numbering, [adj] *)
  (* and [stats.num_edges] are therefore identical to the sequential  *)
  (* result for any domain count.                                     *)
  (* ---------------------------------------------------------------- *)
  let run_parallel pool =
    let batch_cap = max domains (max 1 (batch_edge_cap / max 1 num_choices)) in
    (* Batch ids link the [enum.batch] parent span to the per-domain
       [enum.shard] spans (and, via flow_out/flow_in, draw handoff
       arrows in the Chrome trace viewer). *)
    let batch_no = ref 0 in
    (* Source [j]'s slots are [j * num_choices, (j + 1) * num_choices).
       Grown to the largest batch actually seen, bounded by
       [batch_cap * num_choices] slots. *)
    let dst_ids = ref (Array.make (min 1024 batch_cap * num_choices) 0) in
    let new_vals : int array array ref =
      ref (Array.make (Array.length !dst_ids) [||])
    in
    (* Picks up where the sequential warm-up left off: [adj] already
       holds one row per source below [!frontier]. *)
    let processed = ref !frontier in
    let expanders =
      Array.init domains (fun _ -> expander model index ~all_conditions)
    in
    while !processed < states.Dyn.len do
      let lo = !processed in
      let hi = min states.Dyn.len (lo + batch_cap) in
      let cnt = hi - lo in
      if cnt * num_choices > Array.length !dst_ids then begin
        dst_ids := Array.make (cnt * num_choices) 0;
        new_vals := Array.make (cnt * num_choices) [||]
      end;
      let dst_ids = !dst_ids and new_vals = !new_vals in
      let batch = !batch_no in
      incr batch_no;
      let lt0 = Obs.Clock.now_s () in
      let traced = Obs.enabled () in
      Pool.run pool (fun slot ->
          let st0 = if traced then Obs.Clock.now_s () else 0. in
          let j0 = cnt * slot / domains in
          let j1 = cnt * (slot + 1) / domains in
          let expand = expanders.(slot) in
          for j = j0 to j1 - 1 do
            expand (Dyn.get states (lo + j)) dst_ids new_vals (j * num_choices)
          done;
          (* One retrospective span per domain per batch, emitted on
             the worker so its [dom] is the expanding domain — the
             profiler's busy-timeline unit. *)
          if traced then
            Obs.complete ~cat:"enum" "enum.shard"
              ~dur_s:(Obs.Clock.now_s () -. st0)
              ~args:
                [
                  ("batch", Obs.Int batch);
                  ("slot", Obs.Int slot);
                  ("sources", Obs.Int (j1 - j0));
                  ("flow_in", Obs.Int batch);
                ]);
      for j = 0 to cnt - 1 do
        merge_source dst_ids new_vals (j * num_choices)
      done;
      processed := hi;
      let dt = Obs.Clock.now_s () -. lt0 in
      level_times := (cnt, dt) :: !level_times;
      level_span "enum.batch" ~sources:cnt ~dur_s:dt
        ~extra:[ ("batch", Obs.Int batch); ("flow_out", Obs.Int batch) ]
    done
  in
  let used_domains = ref 1 in
  if domains = 1 then run_sequential ~stop_at:max_int ()
  else begin
    run_sequential ~stop_at:(max 1 parallel_threshold) ();
    if !frontier < states.Dyn.len then begin
      used_domains := domains;
      Pool.with_pool ~domains run_parallel
    end
  end;
  let elapsed_s = Obs.Clock.now_s () -. t0 in
  if Obs.enabled () then begin
    Obs.complete ~cat:"enum" "enum.run" ~dur_s:elapsed_s
      ~args:
        [
          ("states", Obs.Int states.Dyn.len);
          ("edges", Obs.Int !edge_count);
          ("domains", Obs.Int !used_domains);
        ];
    Obs.incr ~by:states.Dyn.len "enum.states";
    Obs.incr ~by:!edge_count "enum.edges"
  end;
  let heap_mb =
    let st = Gc.quick_stat () in
    float_of_int st.Gc.heap_words *. float_of_int (Sys.word_size / 8)
    /. (1024. *. 1024.)
  in
  {
    model;
    states = Dyn.to_array states;
    adj = Dyn.to_array adj;
    index;
    stats =
      {
        num_states = states.Dyn.len;
        num_edges = !edge_count;
        state_bits = Model.state_bits model;
        elapsed_s;
        heap_mb;
        domains = !used_domains;
        level_times = Array.of_list (List.rev !level_times);
      };
  }

let reset_id _ = 0
let num_states t = Array.length t.states
let num_edges t = t.stats.num_edges

let find_state t valuation =
  let vars = t.model.Model.state_vars in
  (* The packed key masks each value to its bytes and trusts the
     length, so anything outside the state space would alias a state. *)
  if Array.length valuation <> Array.length vars
     || not
          (Array.for_all2 (fun var v -> v >= 0 && v < Model.card var) vars
             valuation)
  then None
  else begin
    let key = Bytes.create t.index.key_size in
    t.index.pack_into valuation key;
    index_find t.index key
  end

let out_degree t s = Array.length t.adj.(s)

let edge_offsets t =
  let n = num_states t in
  let offsets = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    offsets.(s + 1) <- offsets.(s) + Array.length t.adj.(s)
  done;
  offsets

let pp_stats ppf s =
  Format.fprintf ppf
    "states=%d bits/state=%d edges=%d time=%.2fs heap=%.1fMB domains=%d \
     levels=%d"
    s.num_states s.state_bits s.num_edges s.elapsed_s s.heap_mb s.domains
    (Array.length s.level_times)

let pp_dot ppf t =
  Format.fprintf ppf "@[<v 2>digraph %s {@," t.model.Model.model_name;
  Array.iteri
    (fun id valuation ->
      Format.fprintf ppf "s%d [label=\"%a\"];@," id
        (Model.pp_state t.model) valuation)
    t.states;
  Array.iteri
    (fun src out ->
      Array.iter
        (fun (dst, ci) ->
          Format.fprintf ppf "s%d -> s%d [label=\"%a\"];@," src dst
            (Model.pp_choice t.model)
            (Model.choice_of_index t.model ci))
        out)
    t.adj;
  Format.fprintf ppf "@]}@,"

let value_coverage t =
  let cov =
    Array.map
      (fun v -> Array.make (Model.card v) false)
      t.model.Model.state_vars
  in
  Array.iter
    (fun st -> Array.iteri (fun i v -> cov.(i).(v) <- true) st)
    t.states;
  cov

let absorbing_states t =
  let out = ref [] in
  Array.iteri
    (fun s edges ->
      if Array.length edges > 0
         && Array.for_all (fun (dst, _) -> dst = s) edges
      then out := s :: !out)
    t.adj;
  List.rev !out

let is_deterministic_image t =
  Array.for_all
    (fun out ->
      let seen = Hashtbl.create 8 in
      Array.for_all
        (fun (_, ci) ->
          if Hashtbl.mem seen ci then false
          else begin
            Hashtbl.add seen ci ();
            true
          end)
        out)
    t.adj
