open Avp_logic

exception Comb_loop = Compile.Comb_loop

(* The tree-walking interpreter: the scalar engine and the reference
   the bit-sliced kernel ({!Sliced}) is checked against.  Both consume
   the same {!Compile.units} analysis, so they settle the same
   evaluation units and agree bit-for-bit. *)

(* Observer hooks, so waveform dumpers and telemetry see every step,
   force and release. *)
type observer = {
  on_step : time:int -> unit;
  on_force : string -> Bv.t -> unit;
  on_release : string -> unit;
}

type t = {
  d : Elab.t;
  u : Compile.units;
  values : Bv.t array;
  forces : Bv.t option array;
  mutable time : int;
  in_queue : bool array;
  queue : int Queue.t;
  mutable dirty_all : bool;
  (* One overlay reused by every sequential process on every edge,
     rather than a fresh Hashtbl per process per edge. *)
  overlay : (Elab.uid, Bv.t) Hashtbl.t;
  mutable obs : observer option;
}

let create (d : Elab.t) =
  let u = Compile.units d in
  let n = Array.length d.Elab.nets in
  let values =
    Array.init n (fun i ->
        let net = d.Elab.nets.(i) in
        match net.Elab.kind with
        | Ast.Reg -> Bv.all_x net.Elab.width
        | Ast.Wire -> Bv.all_z net.Elab.width)
  in
  {
    d;
    u;
    values;
    forces = Array.make n None;
    time = 0;
    in_queue = Array.make u.Compile.unit_count false;
    queue = Queue.create ();
    dirty_all = true;
    overlay = Hashtbl.create 16;
    obs = None;
  }

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)
(* ------------------------------------------------------------------ *)

let rec eval_with lookup (d : Elab.t) (e : Elab.eexpr) : Bv.t =
  match e with
  | Elab.Const v -> v
  | Elab.Net id -> lookup id
  | Elab.Index (id, idx) ->
    let v = lookup id in
    (match Bv.to_int (eval_with lookup d idx) with
     | Some i when i >= 0 && i < Bv.width v ->
       Bv.of_bits [ Bv.get v i ]
     | Some _ | None -> Bv.all_x 1)
  | Elab.Range (id, hi, lo) -> Bv.select (lookup id) ~hi ~lo
  | Elab.Unop (op, e) -> Compile.unop_val op (eval_with lookup d e)
  | Elab.Binop (op, a, b) ->
    let va = eval_with lookup d a in
    Compile.binop_val op va (eval_with lookup d b)
  | Elab.Ternary (c, a, b) ->
    (match Bv.to_bool (eval_with lookup d c) with
     | Some true -> eval_with lookup d a
     | Some false -> eval_with lookup d b
     | None ->
       let va = eval_with lookup d a and vb = eval_with lookup d b in
       Bv.mux ~sel:Bit.X va vb)
  | Elab.Concat es ->
    (match es with
     | [] -> invalid_arg "empty concat"
     | first :: rest ->
       List.fold_left
         (fun acc e -> Bv.concat acc (eval_with lookup d e))
         (eval_with lookup d first)
         rest)
  | Elab.Repeat (n, e) -> Bv.repeat n (eval_with lookup d e)

(* ------------------------------------------------------------------ *)
(* Lvalue writes                                                      *)
(* ------------------------------------------------------------------ *)

(* Split [value] across an lvalue, MSB-first, yielding per-net bit
   writes.  A dynamic index that evaluates to an undefined or
   out-of-range value produces no write, matching event-driven
   Verilog. *)
let lv_pieces lookup (d : Elab.t) (lv : Elab.elv) (value : Bv.t) :
    (Elab.uid * int * Bv.t) list =
  let rec lv_width = function
    | Elab.Lnet id -> d.Elab.nets.(id).Elab.width
    | Elab.Lindex _ -> 1
    | Elab.Lrange (_, hi, lo) -> hi - lo + 1
    | Elab.Lconcat ls -> List.fold_left (fun a l -> a + lv_width l) 0 ls
  in
  let total = lv_width lv in
  let value = Bv.resize value total in
  (* Walk components LSB-first: reverse order of the concat list. *)
  let pieces = ref [] in
  let rec walk lv offset =
    match lv with
    | Elab.Lnet id ->
      let w = d.Elab.nets.(id).Elab.width in
      pieces := (id, 0, Bv.select value ~hi:(offset + w - 1) ~lo:offset)
                :: !pieces;
      offset + w
    | Elab.Lindex (id, idx) ->
      (match Bv.to_int (eval_with lookup d idx) with
       | Some i when i >= 0 && i < d.Elab.nets.(id).Elab.width ->
         pieces := (id, i, Bv.select value ~hi:offset ~lo:offset) :: !pieces
       | Some _ | None -> ());
      offset + 1
    | Elab.Lrange (id, hi, lo) ->
      let w = hi - lo + 1 in
      pieces := (id, lo, Bv.select value ~hi:(offset + w - 1) ~lo:offset)
                :: !pieces;
      offset + w
    | Elab.Lconcat ls ->
      List.fold_left (fun off l -> walk l off) offset (List.rev ls)
  in
  ignore (walk lv 0);
  List.rev !pieces

let apply_piece current (lo, bits) = Bv.insert current ~lo bits

(* ------------------------------------------------------------------ *)
(* Statement execution                                                *)
(* ------------------------------------------------------------------ *)

type exec_ctx = {
  lookup : Elab.uid -> Bv.t;
  write_blocking : Elab.uid -> int -> Bv.t -> unit;
  write_nonblocking : Elab.uid -> int -> Bv.t -> unit;
}

let rec exec ctx (d : Elab.t) (s : Elab.estmt) : unit =
  match s with
  | Elab.Block ss -> List.iter (exec ctx d) ss
  | Elab.Nop -> ()
  | Elab.Blocking (lv, e) ->
    let v = eval_with ctx.lookup d e in
    List.iter
      (fun (id, lo, bits) -> ctx.write_blocking id lo bits)
      (lv_pieces ctx.lookup d lv v)
  | Elab.Nonblocking (lv, e) ->
    let v = eval_with ctx.lookup d e in
    List.iter
      (fun (id, lo, bits) -> ctx.write_nonblocking id lo bits)
      (lv_pieces ctx.lookup d lv v)
  | Elab.If (c, t, e) ->
    (match Bv.to_bool (eval_with ctx.lookup d c) with
     | Some true -> exec ctx d t
     | Some false | None ->
       (match e with Some s -> exec ctx d s | None -> ()))
  | Elab.Case (sel, items, dflt) ->
    let vsel = eval_with ctx.lookup d sel in
    let matches label =
      Bit.equal (Bv.case_eq vsel (eval_with ctx.lookup d label)) Bit.L1
    in
    let rec pick = function
      | [] -> (match dflt with Some s -> exec ctx d s | None -> ())
      | (labels, body) :: rest ->
        if List.exists matches labels then exec ctx d body else pick rest
    in
    pick items

(* ------------------------------------------------------------------ *)
(* Settling                                                           *)
(* ------------------------------------------------------------------ *)

let write_value t id v =
  match t.forces.(id) with
  | Some _ -> false
  | None ->
    if Bv.equal t.values.(id) v then false
    else begin
      t.values.(id) <- v;
      true
    end

(* Worklist settling: only re-evaluate units whose inputs changed. *)

let enqueue_unit t u =
  if not t.in_queue.(u) then begin
    t.in_queue.(u) <- true;
    Queue.add u t.queue
  end

let mark_net_changed t net =
  Array.iter (enqueue_unit t) t.u.Compile.readers.(net)

let run_unit t u ~note_change =
  let n = Array.length t.d.Elab.nets in
  let lookup id = t.values.(id) in
  if u < n then begin
    (* Net resolution unit. *)
    match t.u.Compile.drivers.(u) with
    | [] -> ()
    | dlist ->
      let width = t.d.Elab.nets.(u).Elab.width in
      let contribution (lv, e) =
        let v = eval_with lookup t.d e in
        let base = Bv.all_z width in
        List.fold_left
          (fun acc (pid, lo, bits) ->
            if pid = u then apply_piece acc (lo, bits) else acc)
          base
          (lv_pieces lookup t.d lv v)
      in
      let resolved =
        List.fold_left
          (fun acc drv -> Bv.resolve acc (contribution drv))
          (Bv.all_z width) dlist
      in
      if write_value t u resolved then note_change u
  end
  else begin
    let ctx =
      {
        lookup;
        write_blocking =
          (fun id lo bits ->
            let v = apply_piece t.values.(id) (lo, bits) in
            if write_value t id v then note_change id);
        write_nonblocking =
          (fun id lo bits ->
            (* Nonblocking in combinational context degenerates to
               blocking under fixpoint iteration. *)
            let v = apply_piece t.values.(id) (lo, bits) in
            if write_value t id v then note_change id);
      }
    in
    exec ctx t.d t.u.Compile.comb.(u - n)
  end

let settle t =
  if t.dirty_all then begin
    t.dirty_all <- false;
    for u = 0 to t.u.Compile.unit_count - 1 do
      enqueue_unit t u
    done
  end;
  let budget = 64 * (t.u.Compile.unit_count + 4) in
  let executed = ref 0 in
  let last_changed = ref None in
  let note_change net =
    last_changed := Some t.d.Elab.nets.(net).Elab.name;
    mark_net_changed t net
  in
  while not (Queue.is_empty t.queue) do
    let u = Queue.pop t.queue in
    t.in_queue.(u) <- false;
    incr executed;
    if !executed > budget then begin
      let name =
        match !last_changed with Some n -> n | None -> "<unknown>"
      in
      raise (Comb_loop name)
    end;
    run_unit t u ~note_change
  done

(* ------------------------------------------------------------------ *)
(* Clock edges                                                        *)
(* ------------------------------------------------------------------ *)

let edge_step ~edge t clock_id =
  settle t;
  (* Blocking writes of sequential processes only reach the per-
     process overlay and nonblocking updates commit after every
     process has run, so [t.values] is the pre-edge state throughout:
     no snapshot copy of the net table is needed. *)
  let nba = ref [] in
  Array.iter
    (fun (edges, body) ->
      if List.exists (fun (e, id) -> e = edge && id = clock_id) edges then begin
        (* Each process reads pre-edge values plus its own blocking
           writes, so concurrent processes cannot race. *)
        Hashtbl.reset t.overlay;
        let lookup id =
          match Hashtbl.find_opt t.overlay id with
          | Some v -> v
          | None -> t.values.(id)
        in
        let ctx =
          {
            lookup;
            write_blocking =
              (fun id lo bits ->
                Hashtbl.replace t.overlay id
                  (apply_piece (lookup id) (lo, bits)));
            write_nonblocking =
              (fun id lo bits -> nba := (id, lo, bits) :: !nba);
          }
        in
        exec ctx t.d body
      end)
    t.u.Compile.seq;
  List.iter
    (fun (id, lo, bits) ->
      match t.forces.(id) with
      | Some _ -> ()
      | None ->
        let v = apply_piece t.values.(id) (lo, bits) in
        if not (Bv.equal t.values.(id) v) then begin
          t.values.(id) <- v;
          mark_net_changed t id
        end)
    (List.rev !nba);
  t.time <- t.time + 1;
  settle t

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let design t = t.d
let time t = t.time
let set_observer t obs = t.obs <- obs
let observer t = t.obs

let lookup_id t name =
  match Hashtbl.find_opt t.d.Elab.by_name name with
  | Some id -> id
  | None -> raise Not_found

let get_id t id = t.values.(id)
let get t name = get_id t (lookup_id t name)
let eval t e = eval_with (get_id t) t.d e

let poke_id t id v =
  match t.forces.(id) with
  | Some _ -> ()
  | None ->
    let v = Bv.resize v t.d.Elab.nets.(id).Elab.width in
    if not (Bv.equal t.values.(id) v) then begin
      t.values.(id) <- v;
      mark_net_changed t id
    end

let rerun_unit = enqueue_unit

let set t name v =
  poke_id t (lookup_id t name) v;
  settle t

let force t name v =
  let id = lookup_id t name in
  let v' = Bv.resize v t.d.Elab.nets.(id).Elab.width in
  t.forces.(id) <- Some v';
  t.values.(id) <- v';
  mark_net_changed t id;
  settle t;
  match t.obs with Some o -> o.on_force name v | None -> ()

let release t name =
  let id = lookup_id t name in
  t.forces.(id) <- None;
  (* Re-resolve the net itself and everything reading it. *)
  enqueue_unit t id;
  mark_net_changed t id;
  settle t;
  match t.obs with Some o -> o.on_release name | None -> ()

let forced t name = t.forces.(lookup_id t name) <> None

let step ?(edge = Ast.Posedge) t clock =
  edge_step ~edge t (lookup_id t clock);
  if Avp_obs.Obs.enabled () then Avp_obs.Obs.incr "sim.steps";
  match t.obs with Some o -> o.on_step ~time:t.time | None -> ()
