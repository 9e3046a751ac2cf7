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

(* Valuation -> state id, keyed by the valuation arrays of [states]
   themselves. *)
type index = int Model.Tbl.t

type t = {
  model : Model.t;
  states : int array array;
  adj : (int * int) array array;
  rows : Bytes.t array;
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
   against the current contents of [index] and returns the number of
   leaves. *)
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
  (* This expansion's successors the index does not know yet, so that
     each is copied once per state rather than once per leaf. *)
  let new_succs : int array Model.Tbl.t = Model.Tbl.create 16 in
  fun cur dst_ids new_vals ->
    Array.fill dst_ids 0 num_choices unset;
    Model.Tbl.clear new_succs;
    let leaves = ref 0 in
    let more = ref true in
    while !more do
      incr leaves;
      model.Model.next_into cur read nxt;
      (match Model.Tbl.find index nxt with
       | id -> write_cube dst_ids new_vals id [||] 0 0
       | exception Not_found ->
         let v =
           match Model.Tbl.find new_succs nxt with
           | v -> v
           | exception Not_found ->
             let v = Array.copy nxt in
             Model.Tbl.add new_succs v v;
             v
         in
         write_cube dst_ids new_vals fresh v 0 0);
      more := backtrack ()
    done;
    !leaves

(* A model with a whole-state entry point ([Model.t.successor_keys])
   fills every slot from one call: each choice index is a leaf of its
   own, in both modes.  Slots whose key repeats an earlier slot's copy
   its answer, so the intern table is probed once per distinct
   successor, and a new successor is unpacked and copied once per
   state.  [first_slot] maps a key to the first slot holding it. *)
let key_expander (model : Model.t) (index : index) successor_keys =
  let num_choices = Model.num_choices model in
  let keys = Array.make num_choices 0 in
  let v = Array.make (Array.length model.Model.reset) 0 in
  let first_slot : (int, int) Hashtbl.t = Hashtbl.create 64 in
  fun cur dst_ids new_vals ->
    successor_keys cur keys;
    Hashtbl.clear first_slot;
    for c = 0 to num_choices - 1 do
      let k = keys.(c) in
      match Hashtbl.find first_slot k with
      | slot ->
        let id = dst_ids.(slot) in
        dst_ids.(c) <- id;
        if id = fresh then new_vals.(c) <- new_vals.(slot)
      | exception Not_found ->
        Hashtbl.add first_slot k c;
        Model.unpack model k v;
        (match Model.Tbl.find index v with
         | id -> dst_ids.(c) <- id
         | exception Not_found ->
           dst_ids.(c) <- fresh;
           new_vals.(c) <- Array.copy v)
    done;
    num_choices

let enumerate ?(all_conditions = false) ?(max_states = 5_000_000) ?domains:_
    ?progress (model : Model.t) =
  let t0 = Obs.Clock.now_s () in
  let index = Model.Tbl.create 256 in
  let states = Dyn.create [||] in
  let adj = Dyn.create [||] in
  let num_choices = Model.num_choices model in
  let edge_count = ref 0 in
  let level_times = ref [] in
  (* Intern the reset state as id 0. *)
  let reset = Array.copy model.Model.reset in
  Model.Tbl.add index reset 0;
  Dyn.push states reset;
  (* dst -> its edge's position in the source's row, first-condition
     mode only. *)
  let seen_dst : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] and out_len = ref 0 in
  let push_edge dst ci =
    let pos = !out_len in
    out := (dst, ci) :: !out;
    incr out_len;
    incr edge_count;
    pos
  in
  (* Record the edge of [ci] unless its successor already has one, and
     return the position of [dst]'s edge in the source's row.  Half of
     pp's slots share the previous slot's successor, so the last one
     is looked up first. *)
  let last_dst = ref unset and last_pos = ref 0 in
  let record_edge dst ci =
    if all_conditions then push_edge dst ci
    else if dst = !last_dst then !last_pos
    else begin
      let pos =
        match Hashtbl.find seen_dst dst with
        | pos -> pos
        | exception Not_found ->
          let pos = push_edge dst ci in
          Hashtbl.add seen_dst dst pos;
          pos
      in
      last_dst := dst;
      last_pos := pos;
      pos
    end
  in
  (* Intern a freshly discovered valuation during a merge; takes
     ownership of [valuation] (already a private copy), which becomes
     both the state and its key. *)
  let intern_new valuation =
    match Model.Tbl.find index valuation with
    | id -> id
    | exception Not_found ->
      let id = states.Dyn.len in
      if id >= max_states then raise (Too_many_states max_states);
      Model.Tbl.add index valuation id;
      Dyn.push states valuation;
      id
  in
  (* Successor rows: byte [ci] is the position in the source's
     adjacency row of [ci]'s edge.  Equal rows are stored once, and
     they are kept as (source, row) until the end, so that a graph
     whose states keep no row spends no array on them. *)
  let kept_rows = ref [] in
  let row = Bytes.create num_choices in
  let shared_rows : (Bytes.t, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let share_row () =
    match Hashtbl.find_opt shared_rows row with
    | Some r -> r
    | None ->
      let r = Bytes.copy row in
      Hashtbl.add shared_rows r r;
      r
  in
  (* Turn one source's slots into its adjacency row, and into its
     successor row when every choice had a leaf of its own
     ([with_row]).  Walking the slots in choice-index order gives each
     successor the lowest index reaching it and interns new states in
     index order (DESIGN.md, "Enumeration"). *)
  let merge_source ~with_row src dst_ids new_vals =
    Hashtbl.reset seen_dst;
    last_dst := unset;
    out := [];
    out_len := 0;
    let row_fits = ref with_row in
    for ci = 0 to num_choices - 1 do
      let d = dst_ids.(ci) in
      if d <> unset then begin
        let d =
          if d <> fresh then d
          else begin
            let v = new_vals.(ci) in
            new_vals.(ci) <- [||];
            intern_new v
          end
        in
        let pos = record_edge d ci in
        if !row_fits then
          if pos < 256 then Bytes.unsafe_set row ci (Char.unsafe_chr pos)
          else row_fits := false
      end
    done;
    Dyn.push adj (Array.of_list (List.rev !out));
    if !row_fits then kept_rows := (src, share_row ()) :: !kept_rows
  in
  (* BFS in id order, each source expanded and merged before the next,
     so successors append at the end and ids are discovery order. *)
  let expand =
    match model.Model.successor_keys with
    | Some keys -> key_expander model index keys
    | None -> expander model index ~all_conditions
  in
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
      let leaves = expand (Dyn.get states src) dst_ids new_vals in
      merge_source ~with_row:(leaves = num_choices) src dst_ids new_vals
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
    rows =
      (match !kept_rows with
       | [] -> [||]
       | kept ->
         let rows = Array.make states.Dyn.len Bytes.empty in
         List.iter (fun (s, r) -> rows.(s) <- r) kept;
         rows);
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

let find_state t valuation = Model.Tbl.find_opt t.index valuation

let bad_choice t c =
  invalid_arg
    (Printf.sprintf "State_graph.successor: choice %d is not in 0..%d" c
       (Model.num_choices t.model - 1))

let successor t s c =
  let row = if s < Array.length t.rows then t.rows.(s) else Bytes.empty in
  if Bytes.length row > 0 then begin
    if c < 0 || c >= Bytes.length row then bad_choice t c;
    Some (fst t.adj.(s).(Char.code (Bytes.unsafe_get row c)))
  end
  else begin
    if c < 0 || c >= Model.num_choices t.model then bad_choice t c;
    find_state t
      (t.model.Model.next t.states.(s) (Model.choice_of_index t.model c))
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
