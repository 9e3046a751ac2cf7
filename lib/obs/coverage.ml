(* Generic state/arc coverage counting over an enumerated graph.

   The single implementation behind every coverage number the repo
   reports: the RTL arc-coverage harness, the unified reports, the
   fuzzing loop and the CLI all mark observations here and read one
   summary back.  The graph is declared up front as (src, dst) pairs;
   marking an arc that is not declared is ignored, so it never
   inflates coverage.

   Beyond the original seen-sets, the structure keeps O(1) running
   counts so a caller can snapshot {!counts} before and after a batch
   of marks and read the increment back without rescanning — the
   incremental feedback signal of the coverage-guided fuzzer.  The
   pair space (state, input-class) is finer than (src, dst) arcs:
   under a first-condition-only graph two different input classes can
   label the same arc, and the fuzzer wants credit for exercising
   both. *)

type summary = {
  states_seen : int;
  states_total : int;
  arcs_seen : int;
  arcs_total : int;
  unmapped : int;
      (* observations that did not project onto the declared space *)
}

type counts = {
  c_states : int;
  c_arcs : int;
  c_pairs : int;
  c_unmapped : int;
}

(* Dense sets.  The declared arcs are laid out per source as an
   ascending, duplicate-free run of destinations, the runs concatenated
   in source order; an arc's position in that layout is its id, and a
   seen byte per id records the marks.  Pairs are a bitset over classes
   per state, grown on demand. *)
type t = {
  seen_states : bool array;
  mutable states_count : int;
  arc_start : int array;
      (* source s's run: arc_dst.(arc_start.(s) .. arc_start.(s+1) - 1) *)
  arc_dst : int array;
  seen_arcs : Bytes.t;  (* per arc id *)
  mutable arcs_count : int;
  pairs : Bytes.t array;  (* per state: bit cls of byte cls/8 *)
  mutable pairs_count : int;
  mutable unmapped : int;
}

(* From each source's destinations, duplicates allowed; sources may
   outnumber the states. *)
let of_dsts ~num_states (dsts : int list array) =
  let runs =
    Array.map (fun d -> Array.of_list (List.sort_uniq Int.compare d)) dsts
  in
  let arc_start = Array.make (Array.length runs + 1) 0 in
  Array.iteri
    (fun s run -> arc_start.(s + 1) <- arc_start.(s) + Array.length run)
    runs;
  let arc_dst = Array.concat (Array.to_list runs) in
  let num_states = max 0 num_states in
  {
    seen_states = Array.make num_states false;
    states_count = 0;
    arc_start;
    arc_dst;
    seen_arcs = Bytes.make (Array.length arc_dst) '\000';
    arcs_count = 0;
    pairs = Array.make num_states Bytes.empty;
    pairs_count = 0;
    unmapped = 0;
  }

let create ~num_states ~arcs =
  let num_sources =
    Array.fold_left
      (fun n (src, dst) ->
        if src < 0 || dst < 0 then
          invalid_arg
            (Printf.sprintf "Coverage.create: arc (%d, %d) has a negative id"
               src dst);
        max n (src + 1))
      num_states arcs
  in
  let dsts = Array.make (max 0 num_sources) [] in
  Array.iter (fun (src, dst) -> dsts.(src) <- dst :: dsts.(src)) arcs;
  of_dsts ~num_states dsts

let of_graph (adj : (int * int) array array) =
  of_dsts ~num_states:(Array.length adj)
    (Array.map (Array.fold_left (fun acc (dst, _) -> dst :: acc) []) adj)

let mark_state t id =
  if id >= 0 && id < Array.length t.seen_states && not t.seen_states.(id)
  then begin
    t.seen_states.(id) <- true;
    t.states_count <- t.states_count + 1
  end

(* Binary search of [src]'s run. *)
let arc_id t ~src ~dst =
  if src < 0 || src >= Array.length t.arc_start - 1 then -1
  else begin
    let hi = t.arc_start.(src + 1) in
    let lo = ref t.arc_start.(src) and h = ref hi in
    while !lo < !h do
      let mid = (!lo + !h) lsr 1 in
      if t.arc_dst.(mid) < dst then lo := mid + 1 else h := mid
    done;
    if !lo < hi && t.arc_dst.(!lo) = dst then !lo else -1
  end

let mark_arc t ~src ~dst =
  let id = arc_id t ~src ~dst in
  if id >= 0 && Bytes.get t.seen_arcs id = '\000' then begin
    Bytes.set t.seen_arcs id '\001';
    t.arcs_count <- t.arcs_count + 1
  end

let mark_pair t ~state ~cls =
  if state >= 0 && state < Array.length t.pairs && cls >= 0 then begin
    let byte = cls lsr 3 and bit = 1 lsl (cls land 7) in
    let b = t.pairs.(state) in
    let b =
      if byte < Bytes.length b then b
      else begin
        let grown = Bytes.make (max (byte + 1) (2 * Bytes.length b)) '\000' in
        Bytes.blit b 0 grown 0 (Bytes.length b);
        t.pairs.(state) <- grown;
        grown
      end
    in
    let v = Char.code (Bytes.get b byte) in
    if v land bit = 0 then begin
      Bytes.set b byte (Char.chr (v lor bit));
      t.pairs_count <- t.pairs_count + 1
    end
  end

let mark_unmapped t = t.unmapped <- t.unmapped + 1

let seen_state t id =
  id >= 0 && id < Array.length t.seen_states && t.seen_states.(id)

let seen_arc t ~src ~dst =
  let id = arc_id t ~src ~dst in
  id >= 0 && Bytes.get t.seen_arcs id <> '\000'

let seen_pair t ~state ~cls =
  state >= 0 && state < Array.length t.pairs && cls >= 0
  &&
  let b = t.pairs.(state) and byte = cls lsr 3 in
  byte < Bytes.length b
  && Char.code (Bytes.get b byte) land (1 lsl (cls land 7)) <> 0

let arc_declared t ~src ~dst = arc_id t ~src ~dst >= 0

let counts t =
  {
    c_states = t.states_count;
    c_arcs = t.arcs_count;
    c_pairs = t.pairs_count;
    c_unmapped = t.unmapped;
  }

let delta ~before ~after =
  {
    c_states = after.c_states - before.c_states;
    c_arcs = after.c_arcs - before.c_arcs;
    c_pairs = after.c_pairs - before.c_pairs;
    c_unmapped = after.c_unmapped - before.c_unmapped;
  }

let progress d = d.c_states > 0 || d.c_arcs > 0 || d.c_pairs > 0

let summary t =
  {
    states_seen = t.states_count;
    states_total = Array.length t.seen_states;
    arcs_seen = t.arcs_count;
    arcs_total = Array.length t.arc_dst;
    unmapped = t.unmapped;
  }

let pairs_seen t = t.pairs_count

let state_fraction c =
  if c.states_total = 0 then 0.
  else float_of_int c.states_seen /. float_of_int c.states_total

let arc_fraction c =
  if c.arcs_total = 0 then 0.
  else float_of_int c.arcs_seen /. float_of_int c.arcs_total

let pp ppf c =
  Format.fprintf ppf
    "states %d/%d (%.1f%%), arcs %d/%d (%.1f%%), unmapped cycles %d"
    c.states_seen c.states_total
    (100. *. state_fraction c)
    c.arcs_seen c.arcs_total
    (100. *. arc_fraction c)
    c.unmapped

let to_json c =
  Json.Obj
    [
      ("states_seen", Json.Int c.states_seen);
      ("states_total", Json.Int c.states_total);
      ("state_fraction", Json.Float (state_fraction c));
      ("arcs_seen", Json.Int c.arcs_seen);
      ("arcs_total", Json.Int c.arcs_total);
      ("arc_fraction", Json.Float (arc_fraction c));
      ("unmapped", Json.Int c.unmapped);
    ]
