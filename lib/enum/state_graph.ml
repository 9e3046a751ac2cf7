open Avp_fsm
module Obs = Avp_obs.Obs

type stats = {
  num_states : int;
  num_edges : int;
  state_bits : int;
  elapsed_s : float;
  heap_mb : float;
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
   them for shard selection would leave most buckets empty). *)

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
   new_vals], which fills the [num_choices] slots for state [cur]
   against the current contents of [index]. *)
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
  fun cur dst_ids new_vals ->
    Array.fill dst_ids 0 num_choices unset;
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
      write_cube dst_ids new_vals id !leaf_val 0 0;
      more := backtrack ()
    done

let enumerate ?(all_conditions = false) ?(max_states = 5_000_000) ?domains:_
    ?progress (model : Model.t) =
  let t0 = Obs.Clock.now_s () in
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
     it and interns new states in index order (DESIGN.md,
     "Enumeration"). *)
  let merge_source dst_ids new_vals =
    Hashtbl.reset seen_dst;
    out := [];
    for ci = 0 to num_choices - 1 do
      let d = dst_ids.(ci) in
      if d >= 0 then record_edge d ci
      else if d = fresh then begin
        let v = new_vals.(ci) in
        new_vals.(ci) <- [||];
        record_edge (intern_new v) ci
      end
    done;
    Dyn.push adj (Array.of_list (List.rev !out))
  in
  (* BFS in id order, each source expanded and merged before the next,
     so successors append at the end and ids are discovery order. *)
  let expand = expander model index ~all_conditions in
  let dst_ids = Array.make num_choices unset in
  let new_vals = Array.make num_choices [||] in
  let frontier = ref 0 in
  while !frontier < states.Dyn.len do
    let level_end = states.Dyn.len in
    let level_size = level_end - !frontier in
    let lt0 = Obs.Clock.now_s () in
    while !frontier < level_end do
      let src = !frontier in
      incr frontier;
      expand (Dyn.get states src) dst_ids new_vals;
      merge_source dst_ids new_vals
    done;
    let dt = Obs.Clock.now_s () -. lt0 in
    level_times := (level_size, dt) :: !level_times;
    (* Telemetry is per BFS level, never per state: with spans off
       this adds one load and branch per level (the 3%-overhead budget in
       DESIGN.md). *)
    if Obs.enabled () then
      Obs.complete ~cat:"enum" "enum.level" ~dur_s:dt
        ~args:[ ("sources", Obs.Int level_size) ];
    match progress with
    | Some p -> Avp_obs.Progress.tick ~n:level_size p
    | None -> ()
  done;
  let elapsed_s = Obs.Clock.now_s () -. t0 in
  if Obs.enabled () then begin
    Obs.complete ~cat:"enum" "enum.run" ~dur_s:elapsed_s
      ~args:
        [
          ("states", Obs.Int states.Dyn.len);
          ("edges", Obs.Int !edge_count);
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

let report_section (s : stats) : Avp_obs.Report.enum_section =
  {
    Avp_obs.Report.num_states = s.num_states;
    num_edges = s.num_edges;
    state_bits = s.state_bits;
    enum_elapsed_s = s.elapsed_s;
    levels = Array.length s.level_times;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "states=%d bits/state=%d edges=%d time=%.2fs heap=%.1fMB levels=%d"
    s.num_states s.state_bits s.num_edges s.elapsed_s s.heap_mb
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
