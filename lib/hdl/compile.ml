open Avp_logic

exception Comb_loop of string

(* ------------------------------------------------------------------ *)
(* Shared static analysis                                             *)
(* ------------------------------------------------------------------ *)

type units = {
  drivers : (Elab.elv * Elab.eexpr) list array;
  comb : Elab.estmt array;
  seq : ((Ast.edge * Elab.uid) list * Elab.estmt) array;
  readers : int array array;
  unit_count : int;
}

let lv_index_reads lv =
  let rec go acc = function
    | Elab.Lnet _ | Elab.Lrange _ -> acc
    | Elab.Lindex (_, e) -> List.rev_append (Elab.expr_nets e) acc
    | Elab.Lconcat ls -> List.fold_left go acc ls
  in
  go [] lv

(* All reads of one unit are registered together, so a bitset over
   net ids dedups in O(reads) where the old per-list [List.mem] was
   quadratic; prepend order matches the historical lists exactly. *)
let build_readers ~n drivers comb =
  let readers = Array.make n [] in
  let seen = Bytes.make n '\000' in
  let add_unit unit_id reads =
    List.iter
      (fun r ->
        if Bytes.get seen r = '\000' then begin
          Bytes.set seen r '\001';
          readers.(r) <- unit_id :: readers.(r)
        end)
      reads;
    List.iter (fun r -> Bytes.set seen r '\000') reads
  in
  Array.iteri
    (fun id dlist ->
      add_unit id
        (List.concat_map
           (fun (lv, e) -> Elab.expr_nets e @ lv_index_reads lv)
           dlist))
    drivers;
  Array.iteri (fun ci body -> add_unit (n + ci) (Elab.stmt_reads body)) comb;
  Array.map Array.of_list readers

let units (d : Elab.t) =
  let n = Array.length d.Elab.nets in
  let drivers = Array.make n [] in
  let comb = ref [] in
  let seq = ref [] in
  Array.iter
    (fun p ->
      match p with
      | Elab.Assign (lv, e) ->
        List.iter
          (fun id -> drivers.(id) <- (lv, e) :: drivers.(id))
          (Elab.lv_nets lv)
      | Elab.Comb s -> comb := s :: !comb
      | Elab.Seq (edges, s) -> seq := (edges, s) :: !seq)
    d.Elab.processes;
  Array.iteri (fun i l -> drivers.(i) <- List.rev l) drivers;
  let comb = Array.of_list (List.rev !comb) in
  let unit_count = n + Array.length comb in
  {
    drivers;
    comb;
    seq = Array.of_list (List.rev !seq);
    readers = build_readers ~n drivers comb;
    unit_count;
  }

(* ------------------------------------------------------------------ *)
(* Constant folding                                                   *)
(* ------------------------------------------------------------------ *)

let unop_val op v =
  match op with
  | Ast.Not ->
    (match Bv.to_bool v with
     | Some b -> Bv.of_bits [ Bit.of_bool (not b) ]
     | None -> Bv.all_x 1)
  | Ast.Bnot -> Bv.lognot v
  | Ast.Uand -> Bv.of_bits [ Bv.reduce_and v ]
  | Ast.Uor -> Bv.of_bits [ Bv.reduce_or v ]
  | Ast.Uxor -> Bv.of_bits [ Bv.reduce_xor v ]
  | Ast.Neg -> Bv.neg v

let binop_val op va vb =
  let logical f =
    match Bv.to_bool va, Bv.to_bool vb with
    | Some x, Some y -> Bv.of_bits [ Bit.of_bool (f x y) ]
    | _ -> Bv.all_x 1
  in
  match op with
  | Ast.Add -> Bv.add va vb
  | Ast.Sub -> Bv.sub va vb
  | Ast.Mul -> Bv.mul va vb
  | Ast.Band -> Bv.logand va vb
  | Ast.Bor -> Bv.logor va vb
  | Ast.Bxor -> Bv.logxor va vb
  | Ast.Land -> logical ( && )
  | Ast.Lor -> logical ( || )
  | Ast.Eq -> Bv.of_bits [ Bv.eq va vb ]
  | Ast.Neq -> Bv.of_bits [ Bv.neq va vb ]
  | Ast.Ceq -> Bv.of_bits [ Bv.case_eq va vb ]
  | Ast.Cneq -> Bv.of_bits [ Bit.lognot (Bv.case_eq va vb) ]
  | Ast.Lt -> Bv.of_bits [ Bv.lt va vb ]
  | Ast.Le -> Bv.of_bits [ Bv.le va vb ]
  | Ast.Gt -> Bv.of_bits [ Bv.gt va vb ]
  | Ast.Ge -> Bv.of_bits [ Bv.ge va vb ]
  | Ast.Shl -> Bv.shift_left va vb
  | Ast.Shr -> Bv.shift_right va vb

let const_of = function Elab.Const v -> Some v | _ -> None

let rec fold (e : Elab.eexpr) : Elab.eexpr =
  match e with
  | Elab.Const _ | Elab.Net _ | Elab.Range _ -> e
  | Elab.Index (id, i) -> Elab.Index (id, fold i)
  | Elab.Unop (op, a) ->
    let a = fold a in
    (match const_of a with
     | Some v -> Elab.Const (unop_val op v)
     | None -> Elab.Unop (op, a))
  | Elab.Binop (op, a, b) ->
    let a = fold a and b = fold b in
    (match const_of a, const_of b with
     | Some va, Some vb -> Elab.Const (binop_val op va vb)
     | _ -> Elab.Binop (op, a, b))
  | Elab.Ternary (c, a, b) ->
    let c = fold c in
    (match const_of c with
     | Some vc ->
       (match Bv.to_bool vc with
        | Some true -> fold a
        | Some false -> fold b
        | None ->
          let a = fold a and b = fold b in
          (match const_of a, const_of b with
           | Some va, Some vb -> Elab.Const (Bv.mux ~sel:Bit.X va vb)
           | _ -> Elab.Ternary (c, a, b)))
     | None -> Elab.Ternary (c, fold a, fold b))
  | Elab.Concat es ->
    let es = List.map fold es in
    (match es with
     | Elab.Const v0 :: rest
       when List.for_all (fun e -> const_of e <> None) rest ->
       Elab.Const
         (List.fold_left
            (fun acc e ->
              match e with
              | Elab.Const v -> Bv.concat acc v
              | _ -> assert false)
            v0 rest)
     | _ -> Elab.Concat es)
  | Elab.Repeat (n, a) ->
    let a = fold a in
    (match const_of a with
     | Some v when n > 0 -> Elab.Const (Bv.repeat n v)
     | _ -> Elab.Repeat (n, a))

(* ------------------------------------------------------------------ *)
(* Opcodes                                                            *)
(* ------------------------------------------------------------------ *)

(* Flat int-array programs.  Each opcode is followed by its inline
   operands; widths are encoded as bit masks where possible.  Ops
   ending in [s] read nets through the sequential-process overlay. *)
let op_halt = 0
let op_push = 1 (* v u *)
let op_load = 2 (* id *)
let op_loads = 3 (* id *)
let op_select = 4 (* lo m *)
let op_index = 5 (* id w *)
let op_indexs = 6 (* id w *)
let op_notl = 7
let op_bnot = 8 (* m *)
let op_uand = 9 (* m *)
let op_uor = 10
let op_uxor = 11
let op_neg = 12 (* m *)
let op_add = 13 (* m *)
let op_sub = 14 (* m *)
let op_mul = 15 (* m *)
let op_band = 16 (* m *)
let op_bor = 17 (* m *)
let op_bxor = 18 (* m *)
let op_land = 19
let op_lor = 20
let op_eq = 21
let op_neq = 22
let op_ceq = 23
let op_cneq = 24
let op_lt = 25
let op_le = 26
let op_gt = 27
let op_ge = 28
let op_shl = 29 (* w m *)
let op_shr = 30 (* w *)
let op_concat = 31 (* wlo *)
let op_repeat = 32 (* n w *)
let op_muxc = 33 (* m *)
let op_mask = 34 (* m *)
let op_resolve = 35 (* m *)
let op_ins = 36 (* lo m *)
let op_insix = 37 (* w *)
let op_stmp = 38 (* k *)
let op_ltmp = 39 (* k *)
let op_jmp = 40 (* addr *)
let op_jf = 41 (* addr; pop, jump unless definitely true *)
let op_wrc = 42 (* id lo m *)
let op_wrcix = 43 (* id *)
let op_wrs = 44 (* id lo m *)
let op_wrsix = 45 (* id *)
let op_wrn = 46 (* id lo m *)
let op_wrnix = 47 (* id *)

(* ------------------------------------------------------------------ *)
(* Assembler                                                          *)
(* ------------------------------------------------------------------ *)

exception Unsupported

type asm = {
  ad : Elab.t;
  seq_ctx : bool;
  mutable buf : int array;
  mutable len : int;
  mutable depth : int;
  mutable maxd : int;
  mutable ntemps : int;
  (* Per-top-level-expression CSE: occurrence counts and assigned
     temp slots, keyed by structural equality of subtrees. *)
  counts : (Elab.eexpr, int) Hashtbl.t;
  slots : (Elab.eexpr, int * int) Hashtbl.t;
}

let new_asm d ~seq_ctx =
  {
    ad = d;
    seq_ctx;
    buf = Array.make 64 0;
    len = 0;
    depth = 0;
    maxd = 0;
    ntemps = 0;
    counts = Hashtbl.create 16;
    slots = Hashtbl.create 16;
  }

let out a x =
  if a.len = Array.length a.buf then begin
    let b = Array.make (2 * a.len) 0 in
    Array.blit a.buf 0 b 0 a.len;
    a.buf <- b
  end;
  a.buf.(a.len) <- x;
  a.len <- a.len + 1

let adj a d =
  a.depth <- a.depth + d;
  if a.depth > a.maxd then a.maxd <- a.depth

let temp a =
  let k = a.ntemps in
  a.ntemps <- k + 1;
  k

let chkw w = if w < 1 || w > Bv.packed_width_limit then raise Unsupported else w
let msk w = (1 lsl w) - 1
let nw a id = a.ad.Elab.nets.(id).Elab.width

let iter_children f (e : Elab.eexpr) =
  match e with
  | Elab.Const _ | Elab.Net _ | Elab.Range _ -> ()
  | Elab.Index (_, i) -> f i
  | Elab.Unop (_, x) -> f x
  | Elab.Binop (_, x, y) -> f x; f y
  | Elab.Ternary (c, x, y) -> f c; f x; f y
  | Elab.Concat es -> List.iter f es
  | Elab.Repeat (_, x) -> f x

let rec count_occ a e =
  match e with
  | Elab.Const _ | Elab.Net _ | Elab.Range _ -> ()
  | _ ->
    (match Hashtbl.find_opt a.counts e with
     | Some c -> Hashtbl.replace a.counts e (c + 1)
     | None ->
       Hashtbl.add a.counts e 1;
       iter_children (count_occ a) e)

(* Emit [e], leaving its planes on the stack; returns the static
   result width.  Repeated subtrees are computed once into a temp. *)
let rec emit_e a e : int =
  match Hashtbl.find_opt a.slots e with
  | Some (k, w) ->
    out a op_ltmp; out a k; adj a 1;
    w
  | None ->
    let w = emit_node a e in
    (match Hashtbl.find_opt a.counts e with
     | Some c when c >= 2 ->
       let k = temp a in
       out a op_stmp; out a k;
       out a op_ltmp; out a k;
       Hashtbl.replace a.slots e (k, w)
     | _ -> ());
    w

and emit_node a e : int =
  match e with
  | Elab.Const v ->
    let w = chkw (Bv.width v) in
    (match Bv.planes v with
     | Some (pv, pu) -> out a op_push; out a pv; out a pu; adj a 1
     | None -> raise Unsupported);
    w
  | Elab.Net id ->
    let w = chkw (nw a id) in
    out a (if a.seq_ctx then op_loads else op_load);
    out a id; adj a 1;
    w
  | Elab.Index (id, idx) ->
    ignore (chkw (nw a id));
    ignore (emit_e a idx);
    out a (if a.seq_ctx then op_indexs else op_index);
    out a id; out a (nw a id);
    1
  | Elab.Range (id, hi, lo) ->
    ignore (chkw (nw a id));
    let w = hi - lo + 1 in
    out a (if a.seq_ctx then op_loads else op_load);
    out a id; adj a 1;
    out a op_select; out a lo; out a (msk w);
    w
  | Elab.Unop (op, x) ->
    let wx = emit_e a x in
    (match op with
     | Ast.Not -> out a op_notl; 1
     | Ast.Bnot -> out a op_bnot; out a (msk wx); wx
     | Ast.Uand -> out a op_uand; out a (msk wx); 1
     | Ast.Uor -> out a op_uor; 1
     | Ast.Uxor -> out a op_uxor; 1
     | Ast.Neg -> out a op_neg; out a (msk wx); wx)
  | Elab.Binop (op, x, y) ->
    let wx = emit_e a x in
    let wy = emit_e a y in
    let arith o =
      let w = chkw (max wx wy) in
      out a o; out a (msk w); adj a (-1);
      w
    in
    let scalar o = out a o; adj a (-1); 1 in
    (match op with
     | Ast.Add -> arith op_add
     | Ast.Sub -> arith op_sub
     | Ast.Mul -> arith op_mul
     | Ast.Band -> arith op_band
     | Ast.Bor -> arith op_bor
     | Ast.Bxor -> arith op_bxor
     | Ast.Land -> scalar op_land
     | Ast.Lor -> scalar op_lor
     | Ast.Eq -> scalar op_eq
     | Ast.Neq -> scalar op_neq
     | Ast.Ceq -> scalar op_ceq
     | Ast.Cneq -> scalar op_cneq
     | Ast.Lt -> scalar op_lt
     | Ast.Le -> scalar op_le
     | Ast.Gt -> scalar op_gt
     | Ast.Ge -> scalar op_ge
     | Ast.Shl ->
       (* Result width is the left operand's, unlike [Elab.expr_width]. *)
       out a op_shl; out a wx; out a (msk wx); adj a (-1);
       wx
     | Ast.Shr ->
       out a op_shr; out a wx; adj a (-1);
       wx)
  | Elab.Ternary (c, x, y) ->
    (* Arms are pure, so evaluate both and select branch-free; this
       only types when the arms agree on width (the interpreter's
       dynamic result width is the taken arm's). *)
    ignore (emit_e a c);
    let wx = emit_e a x in
    let wy = emit_e a y in
    if wx <> wy then raise Unsupported;
    out a op_muxc; out a (msk wx); adj a (-2);
    wx
  | Elab.Concat es ->
    (match es with
     | [] -> invalid_arg "empty concat"
     | first :: rest ->
       let w0 = emit_e a first in
       List.fold_left
         (fun wacc e ->
           let we = emit_e a e in
           let w = chkw (wacc + we) in
           out a op_concat; out a we; adj a (-1);
           w)
         w0 rest)
  | Elab.Repeat (n, x) ->
    let wx = emit_e a x in
    let w = chkw (n * wx) in
    out a op_repeat; out a n; out a wx;
    w

(* Top-level expression: fold constants, number common subtrees. *)
let emit_expr a e =
  let e = fold e in
  Hashtbl.reset a.counts;
  Hashtbl.reset a.slots;
  count_occ a e;
  emit_e a e

let rec lvw a = function
  | Elab.Lnet id -> nw a id
  | Elab.Lindex _ -> 1
  | Elab.Lrange (_, hi, lo) -> hi - lo + 1
  | Elab.Lconcat ls -> List.fold_left (fun s l -> s + lvw a l) 0 ls

(* ------------------------------------------------------------------ *)
(* Statement compilation                                              *)
(* ------------------------------------------------------------------ *)

let wr_ops a ~nonblocking =
  if not a.seq_ctx then (op_wrc, op_wrcix)
  else if nonblocking then (op_wrn, op_wrnix)
  else (op_wrs, op_wrsix)

let rec emit_stmt a s =
  match s with
  | Elab.Block ss -> List.iter (emit_stmt a) ss
  | Elab.Nop -> ()
  | Elab.Blocking (lv, e) -> emit_assign a lv e (wr_ops a ~nonblocking:false)
  | Elab.Nonblocking (lv, e) ->
    emit_assign a lv e (wr_ops a ~nonblocking:true)
  | Elab.If (c, tb, eb) ->
    ignore (emit_expr a c);
    out a op_jf;
    let p1 = a.len in
    out a 0; adj a (-1);
    emit_stmt a tb;
    out a op_jmp;
    let p2 = a.len in
    out a 0;
    a.buf.(p1) <- a.len;
    (match eb with Some s -> emit_stmt a s | None -> ());
    a.buf.(p2) <- a.len
  | Elab.Case (sel, items, dflt) ->
    ignore (emit_expr a sel);
    let k = temp a in
    out a op_stmp; out a k; adj a (-1);
    let end_pp = ref [] in
    List.iter
      (fun (labels, body) ->
        (match labels with
         | [] -> out a op_push; out a 0; out a 0; adj a 1
         | l0 :: rest ->
           let match1 l =
             out a op_ltmp; out a k; adj a 1;
             ignore (emit_expr a l);
             out a op_ceq; adj a (-1)
           in
           match1 l0;
           List.iter
             (fun l ->
               match1 l;
               out a op_bor; out a 1; adj a (-1))
             rest);
        out a op_jf;
        let pn = a.len in
        out a 0; adj a (-1);
        emit_stmt a body;
        out a op_jmp;
        end_pp := a.len :: !end_pp;
        out a 0;
        a.buf.(pn) <- a.len)
      items;
    (match dflt with Some s -> emit_stmt a s | None -> ());
    List.iter (fun p -> a.buf.(p) <- a.len) !end_pp

(* Resize the just-emitted RHS (width [wr]) to [total], then scatter
   it across the lvalue pieces LSB-first, mirroring [Sim.lv_pieces]. *)
and emit_assign a lv e (ws, wix) =
  let total = chkw (lvw a lv) in
  let wr = emit_expr a e in
  if wr > total then begin out a op_mask; out a (msk total) end;
  match lv with
  | Elab.Lnet id ->
    out a ws; out a id; out a 0; out a (msk total); adj a (-1)
  | Elab.Lrange (id, _hi, lo) ->
    out a ws; out a id; out a lo; out a (msk total); adj a (-1)
  | Elab.Lindex (id, idx) ->
    ignore (emit_expr a idx);
    out a wix; out a id; adj a (-2)
  | Elab.Lconcat _ ->
    let k = temp a in
    out a op_stmp; out a k; adj a (-1);
    let rec walk lv off =
      match lv with
      | Elab.Lnet id ->
        let w = chkw (nw a id) in
        out a op_ltmp; out a k; adj a 1;
        out a op_select; out a off; out a (msk w);
        out a ws; out a id; out a 0; out a (msk w); adj a (-1);
        off + w
      | Elab.Lrange (id, hi, lo) ->
        let w = hi - lo + 1 in
        out a op_ltmp; out a k; adj a 1;
        out a op_select; out a off; out a (msk w);
        out a ws; out a id; out a lo; out a (msk w); adj a (-1);
        off + w
      | Elab.Lindex (id, idx) ->
        out a op_ltmp; out a k; adj a 1;
        out a op_select; out a off; out a 1;
        ignore (emit_expr a idx);
        out a wix; out a id; adj a (-2);
        off + 1
      | Elab.Lconcat ls -> List.fold_left (fun o l -> walk l o) off (List.rev ls)
    in
    ignore (walk lv 0)

(* One program per driven net: fold every driver's contribution (its
   RHS scattered over an all-Z base, restricted to pieces that hit
   this net) with wire resolution, then write the result. *)
let emit_driver a nid dlist =
  let wn = chkw (nw a nid) in
  let m = msk wn in
  out a op_push; out a 0; out a m; adj a 1;
  List.iter
    (fun (lv, e) ->
      (match lv with
       | Elab.Lnet id when id = nid ->
         (* Single full-width piece: contribution = resized RHS. *)
         let wr = emit_expr a e in
         if wr > wn then begin out a op_mask; out a m end
       | _ ->
         let total = chkw (lvw a lv) in
         let wr = emit_expr a e in
         if wr > total then begin out a op_mask; out a (msk total) end;
         let k = temp a in
         out a op_stmp; out a k; adj a (-1);
         out a op_push; out a 0; out a m; adj a 1;
         let rec walk lv off =
           match lv with
           | Elab.Lnet id ->
             let w = nw a id in
             if id = nid then begin
               out a op_ltmp; out a k; adj a 1;
               out a op_select; out a off; out a (msk w);
               out a op_ins; out a 0; out a (msk w); adj a (-1)
             end;
             off + w
           | Elab.Lrange (id, hi, lo) ->
             let w = hi - lo + 1 in
             if id = nid then begin
               out a op_ltmp; out a k; adj a 1;
               out a op_select; out a off; out a (msk w);
               out a op_ins; out a lo; out a (msk w); adj a (-1)
             end;
             off + w
           | Elab.Lindex (id, idx) ->
             if id = nid then begin
               out a op_ltmp; out a k; adj a 1;
               out a op_select; out a off; out a 1;
               ignore (emit_expr a idx);
               out a op_insix; out a wn; adj a (-2)
             end;
             off + 1
           | Elab.Lconcat ls ->
             List.fold_left (fun o l -> walk l o) off (List.rev ls)
         in
         ignore (walk lv 0));
      out a op_resolve; out a m; adj a (-1))
    dlist;
  out a op_wrc; out a nid; out a 0; out a m; adj a (-1)

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  d : Elab.t;
  u : units;
  widths : int array;
  nv : int array; (* value plane per net *)
  nu : int array; (* unknown plane per net *)
  forced : Bytes.t;
  progs : int array array; (* per unit; [||] when nothing to run *)
  seqp : ((Ast.edge * Elab.uid) list * int array) array;
  (* Scratch buffers, sized at compile time: no allocation while
     executing programs. *)
  sv : int array;
  su : int array;
  tv : int array;
  tu : int array;
  ov_v : int array;
  ov_u : int array;
  ov_set : Bytes.t;
  touched : int array;
  mutable n_touched : int;
  mutable nba_id : int array;
  mutable nba_lo : int array;
  mutable nba_m : int array;
  mutable nba_v : int array;
  mutable nba_u : int array;
  mutable n_nba : int;
  queue : int array; (* ring buffer of unit ids *)
  mutable qh : int;
  mutable qt : int;
  in_queue : Bytes.t;
  mutable dirty_all : bool;
  mutable time : int;
  mutable last_changed : int;
}

let design t = t.d
let time t = t.time

let enqueue t unit =
  if Bytes.get t.in_queue unit = '\000' then begin
    Bytes.set t.in_queue unit '\001';
    t.queue.(t.qt) <- unit;
    t.qt <- (t.qt + 1) mod Array.length t.queue
  end

let mark_readers t id =
  let rs = t.u.readers.(id) in
  for i = 0 to Array.length rs - 1 do
    enqueue t rs.(i)
  done

(* [mark] also records the net for Comb_loop diagnostics, matching
   the interpreter's note_change / mark_net_changed split. *)
let mark t id =
  t.last_changed <- id;
  mark_readers t id

let nba_push t id lo m v u =
  let cap = Array.length t.nba_id in
  if t.n_nba = cap then begin
    let grow a =
      let b = Array.make (2 * cap) 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    t.nba_id <- grow t.nba_id;
    t.nba_lo <- grow t.nba_lo;
    t.nba_m <- grow t.nba_m;
    t.nba_v <- grow t.nba_v;
    t.nba_u <- grow t.nba_u
  end;
  let i = t.n_nba in
  t.nba_id.(i) <- id;
  t.nba_lo.(i) <- lo;
  t.nba_m.(i) <- m;
  t.nba_v.(i) <- v;
  t.nba_u.(i) <- u;
  t.n_nba <- i + 1

(* Truth value of planes: 1 definitely true, 0 definitely false,
   -1 undecidable. *)
let[@inline] tb v u = if v land lnot u <> 0 then 1 else if v lor u = 0 then 0 else -1

let[@inline] parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

(* ------------------------------------------------------------------ *)
(* The stack machine                                                  *)
(* ------------------------------------------------------------------ *)

let exec t (code : int array) =
  let sv = t.sv and su = t.su in
  let nv = t.nv and nu = t.nu in
  let sp = ref 0 in
  let pc = ref 0 in
  let running = ref true in
  (* Dispatch is a dense integer match — the compiler turns it into a
     jump table, which matters: dispatch dominates the kernel on small
     programs.  Stack and code indices are verified by the assembler
     ([finish] checks the net stack depth of every program and sizes
     the buffers to the maximum), so the accesses are unchecked. *)
  while !running do
    let op = Array.unsafe_get code !pc in
    match op with
    | 0 (* halt *) -> running := false
    | 1 (* push v u *) ->
      Array.unsafe_set sv !sp (Array.unsafe_get code (!pc + 1));
      Array.unsafe_set su !sp (Array.unsafe_get code (!pc + 2));
      incr sp;
      pc := !pc + 3
    | 2 (* load id *) ->
      let id = Array.unsafe_get code (!pc + 1) in
      Array.unsafe_set sv !sp (Array.unsafe_get nv id);
      Array.unsafe_set su !sp (Array.unsafe_get nu id);
      incr sp;
      pc := !pc + 2
    | 3 (* loads id *) ->
      let id = Array.unsafe_get code (!pc + 1) in
      if Bytes.unsafe_get t.ov_set id = '\001' then begin
        Array.unsafe_set sv !sp (Array.unsafe_get t.ov_v id);
        Array.unsafe_set su !sp (Array.unsafe_get t.ov_u id)
      end
      else begin
        Array.unsafe_set sv !sp (Array.unsafe_get nv id);
        Array.unsafe_set su !sp (Array.unsafe_get nu id)
      end;
      incr sp;
      pc := !pc + 2
    | 4 (* select lo m *) ->
      let lo = Array.unsafe_get code (!pc + 1)
      and m = Array.unsafe_get code (!pc + 2) in
      let j = !sp - 1 in
      Array.unsafe_set sv j ((Array.unsafe_get sv j lsr lo) land m);
      Array.unsafe_set su j ((Array.unsafe_get su j lsr lo) land m);
      pc := !pc + 3
    | 5 (* index id w *) | 6 (* indexs id w *) ->
      let id = Array.unsafe_get code (!pc + 1)
      and w = Array.unsafe_get code (!pc + 2) in
      let j = !sp - 1 in
      let iv = Array.unsafe_get sv j and iu = Array.unsafe_get su j in
      if iu <> 0 || iv >= w then begin
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 1
      end
      else begin
        let bv, bu =
          if op = 6 && Bytes.unsafe_get t.ov_set id = '\001' then
            (Array.unsafe_get t.ov_v id, Array.unsafe_get t.ov_u id)
          else (Array.unsafe_get nv id, Array.unsafe_get nu id)
        in
        Array.unsafe_set sv j ((bv lsr iv) land 1);
        Array.unsafe_set su j ((bu lsr iv) land 1)
      end;
      pc := !pc + 3
    | 7 (* notl *) ->
      let j = !sp - 1 in
      (match tb (Array.unsafe_get sv j) (Array.unsafe_get su j) with
       | 1 ->
         Array.unsafe_set sv j 0;
         Array.unsafe_set su j 0
       | 0 ->
         Array.unsafe_set sv j 1;
         Array.unsafe_set su j 0
       | _ ->
         Array.unsafe_set sv j 1;
         Array.unsafe_set su j 1);
      pc := !pc + 1
    | 8 (* bnot m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 1 in
      let v = Array.unsafe_get sv j and u = Array.unsafe_get su j in
      Array.unsafe_set sv j (((lnot v) land (lnot u) land m) lor u);
      Array.unsafe_set su j u;
      pc := !pc + 2
    | 9 (* uand m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 1 in
      let v = Array.unsafe_get sv j and u = Array.unsafe_get su j in
      if (lnot v) land (lnot u) land m <> 0 then begin
        Array.unsafe_set sv j 0;
        Array.unsafe_set su j 0
      end
      else if u = 0 then begin
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 0
      end
      else begin
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 1
      end;
      pc := !pc + 2
    | 10 (* uor *) ->
      let j = !sp - 1 in
      let v = Array.unsafe_get sv j and u = Array.unsafe_get su j in
      if v land lnot u <> 0 then begin
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 0
      end
      else if v lor u = 0 then begin
        Array.unsafe_set sv j 0;
        Array.unsafe_set su j 0
      end
      else begin
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 1
      end;
      pc := !pc + 1
    | 11 (* uxor *) ->
      let j = !sp - 1 in
      if Array.unsafe_get su j <> 0 then begin
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 1
      end
      else begin
        Array.unsafe_set sv j (parity (Array.unsafe_get sv j));
        Array.unsafe_set su j 0
      end;
      pc := !pc + 1
    | 12 (* neg m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 1 in
      if Array.unsafe_get su j <> 0 then begin
        Array.unsafe_set sv j m;
        Array.unsafe_set su j m
      end
      else Array.unsafe_set sv j (-Array.unsafe_get sv j land m);
      pc := !pc + 2
    | 13 (* add m *) | 14 (* sub m *) | 15 (* mul m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let bv = Array.unsafe_get sv (j + 1)
      and bu = Array.unsafe_get su (j + 1) in
      if au lor bu <> 0 then begin
        Array.unsafe_set sv j m;
        Array.unsafe_set su j m
      end
      else begin
        let r =
          if op = 13 then av + bv else if op = 14 then av - bv else av * bv
        in
        Array.unsafe_set sv j (r land m);
        Array.unsafe_set su j 0
      end;
      sp := j + 1;
      pc := !pc + 2
    | 16 (* band m *) | 17 (* bor m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let bv = Array.unsafe_get sv (j + 1)
      and bu = Array.unsafe_get su (j + 1) in
      let a1 = av land lnot au and b1 = bv land lnot bu in
      let a0 = (lnot av) land (lnot au) and b0 = (lnot bv) land (lnot bu) in
      let r1, r0 =
        if op = 16 then (a1 land b1, a0 lor b0) else (a1 lor b1, a0 land b0)
      in
      let rx = m land lnot (r0 lor r1) in
      Array.unsafe_set sv j ((r1 land m) lor rx);
      Array.unsafe_set su j rx;
      sp := j + 1;
      pc := !pc + 2
    | 18 (* bxor m *) ->
      let _m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let bv = Array.unsafe_get sv (j + 1)
      and bu = Array.unsafe_get su (j + 1) in
      let rx = au lor bu in
      Array.unsafe_set sv j (((av lxor bv) land lnot rx) lor rx);
      Array.unsafe_set su j rx;
      sp := j + 1;
      pc := !pc + 2
    | 19 (* land *) | 20 (* lor *) | 21 (* eq *) | 22 (* neq *)
    | 23 (* ceq *) | 24 (* cneq *) | 25 (* lt *) | 26 (* le *)
    | 27 (* gt *) | 28 (* ge *) ->
      let j = !sp - 2 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let bv = Array.unsafe_get sv (j + 1)
      and bu = Array.unsafe_get su (j + 1) in
      let set1 b =
        Array.unsafe_set sv j (if b then 1 else 0);
        Array.unsafe_set su j 0
      in
      let setx () =
        Array.unsafe_set sv j 1;
        Array.unsafe_set su j 1
      in
      (if op = 23 || op = 24 then
         set1 ((av = bv && au = bu) = (op = 23))
       else if op = 19 || op = 20 then begin
         let ta = tb av au and tbv = tb bv bu in
         if ta < 0 || tbv < 0 then setx ()
         else if op = 19 then set1 (ta = 1 && tbv = 1)
         else set1 (ta = 1 || tbv = 1)
       end
       else if au lor bu <> 0 then setx ()
       else if op = 21 then set1 (av = bv)
       else if op = 22 then set1 (av <> bv)
       else if op = 25 then set1 (av < bv)
       else if op = 26 then set1 (av <= bv)
       else if op = 27 then set1 (av > bv)
       else set1 (av >= bv));
      sp := j + 1;
      pc := !pc + 1
    | 29 (* shl w m *) | 30 (* shr w *) ->
      let w = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let bv = Array.unsafe_get sv (j + 1)
      and bu = Array.unsafe_get su (j + 1) in
      (if op = 29 then begin
         let m = Array.unsafe_get code (!pc + 2) in
         if bu <> 0 then begin
           Array.unsafe_set sv j m;
           Array.unsafe_set su j m
         end
         else if bv >= w then begin
           Array.unsafe_set sv j 0;
           Array.unsafe_set su j 0
         end
         else begin
           Array.unsafe_set sv j ((av lsl bv) land m);
           Array.unsafe_set su j ((au lsl bv) land m)
         end
       end
       else if bu <> 0 then begin
         let m = msk w in
         Array.unsafe_set sv j m;
         Array.unsafe_set su j m
       end
       else if bv >= w then begin
         Array.unsafe_set sv j 0;
         Array.unsafe_set su j 0
       end
       else begin
         Array.unsafe_set sv j (av lsr bv);
         Array.unsafe_set su j (au lsr bv)
       end);
      sp := j + 1;
      pc := !pc + (if op = 29 then 3 else 2)
    | 31 (* concat wlo *) ->
      let wlo = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      Array.unsafe_set sv j
        ((Array.unsafe_get sv j lsl wlo) lor Array.unsafe_get sv (j + 1));
      Array.unsafe_set su j
        ((Array.unsafe_get su j lsl wlo) lor Array.unsafe_get su (j + 1));
      sp := j + 1;
      pc := !pc + 2
    | 32 (* repeat n w *) ->
      let n = Array.unsafe_get code (!pc + 1)
      and w = Array.unsafe_get code (!pc + 2) in
      let j = !sp - 1 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let rv = ref 0 and ru = ref 0 in
      for i = 0 to n - 1 do
        rv := !rv lor (av lsl (i * w));
        ru := !ru lor (au lsl (i * w))
      done;
      Array.unsafe_set sv j !rv;
      Array.unsafe_set su j !ru;
      pc := !pc + 3
    | 33 (* muxc m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 3 in
      let cv = Array.unsafe_get sv j and cu = Array.unsafe_get su j in
      let av = Array.unsafe_get sv (j + 1)
      and au = Array.unsafe_get su (j + 1) in
      let bv = Array.unsafe_get sv (j + 2)
      and bu = Array.unsafe_get su (j + 2) in
      (match tb cv cu with
       | 1 ->
         Array.unsafe_set sv j av;
         Array.unsafe_set su j au
       | 0 ->
         Array.unsafe_set sv j bv;
         Array.unsafe_set su j bu
       | _ ->
         let d = (lnot au) land (lnot bu) land (lnot (av lxor bv)) land m in
         let rx = m land lnot d in
         Array.unsafe_set sv j ((av land d) lor rx);
         Array.unsafe_set su j rx);
      sp := j + 1;
      pc := !pc + 2
    | 34 (* mask m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 1 in
      Array.unsafe_set sv j (Array.unsafe_get sv j land m);
      Array.unsafe_set su j (Array.unsafe_get su j land m);
      pc := !pc + 2
    | 35 (* resolve m *) ->
      let m = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      let av = Array.unsafe_get sv j and au = Array.unsafe_get su j in
      let bv = Array.unsafe_get sv (j + 1)
      and bu = Array.unsafe_get su (j + 1) in
      let az = au land lnot av and bz = bu land lnot bv in
      let only_az = az land lnot bz and only_bz = bz land lnot az in
      let both_z = az land bz in
      let neither = m land lnot (az lor bz) in
      let def_eq = (lnot au) land (lnot bu) land (lnot (av lxor bv)) in
      let rx = neither land lnot def_eq in
      Array.unsafe_set sv j
        ((only_az land bv) lor (only_bz land av)
        lor (neither land def_eq land av)
        lor rx);
      Array.unsafe_set su j
        ((only_az land bu) lor (only_bz land au) lor both_z lor rx);
      sp := j + 1;
      pc := !pc + 2
    | 36 (* ins lo m *) ->
      let lo = Array.unsafe_get code (!pc + 1)
      and m = Array.unsafe_get code (!pc + 2) in
      let j = !sp - 2 in
      let sm = m lsl lo in
      Array.unsafe_set sv j
        ((Array.unsafe_get sv j land lnot sm)
        lor (Array.unsafe_get sv (j + 1) lsl lo));
      Array.unsafe_set su j
        ((Array.unsafe_get su j land lnot sm)
        lor (Array.unsafe_get su (j + 1) lsl lo));
      sp := j + 1;
      pc := !pc + 3
    | 37 (* insix w *) ->
      let w = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 3 in
      let iv = Array.unsafe_get sv (j + 2)
      and iu = Array.unsafe_get su (j + 2) in
      if iu = 0 && iv < w then begin
        let sm = 1 lsl iv in
        Array.unsafe_set sv j
          ((Array.unsafe_get sv j land lnot sm)
          lor (Array.unsafe_get sv (j + 1) lsl iv));
        Array.unsafe_set su j
          ((Array.unsafe_get su j land lnot sm)
          lor (Array.unsafe_get su (j + 1) lsl iv))
      end;
      sp := j + 1;
      pc := !pc + 2
    | 38 (* stmp k *) ->
      let k = Array.unsafe_get code (!pc + 1) in
      decr sp;
      Array.unsafe_set t.tv k (Array.unsafe_get sv !sp);
      Array.unsafe_set t.tu k (Array.unsafe_get su !sp);
      pc := !pc + 2
    | 39 (* ltmp k *) ->
      let k = Array.unsafe_get code (!pc + 1) in
      Array.unsafe_set sv !sp (Array.unsafe_get t.tv k);
      Array.unsafe_set su !sp (Array.unsafe_get t.tu k);
      incr sp;
      pc := !pc + 2
    | 40 (* jmp addr *) -> pc := Array.unsafe_get code (!pc + 1)
    | 41 (* jf addr *) ->
      decr sp;
      if Array.unsafe_get sv !sp land lnot (Array.unsafe_get su !sp) <> 0
      then pc := !pc + 2
      else pc := Array.unsafe_get code (!pc + 1)
    | 42 (* wrc id lo m *) ->
      let id = Array.unsafe_get code (!pc + 1)
      and lo = Array.unsafe_get code (!pc + 2)
      and m = Array.unsafe_get code (!pc + 3) in
      decr sp;
      let j = !sp in
      if Bytes.unsafe_get t.forced id = '\000' then begin
        let sm = m lsl lo in
        let v =
          (Array.unsafe_get nv id land lnot sm)
          lor (Array.unsafe_get sv j lsl lo)
        in
        let u =
          (Array.unsafe_get nu id land lnot sm)
          lor (Array.unsafe_get su j lsl lo)
        in
        if v <> Array.unsafe_get nv id || u <> Array.unsafe_get nu id
        then begin
          Array.unsafe_set nv id v;
          Array.unsafe_set nu id u;
          mark t id
        end
      end;
      pc := !pc + 4
    | 43 (* wrcix id *) ->
      let id = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      sp := j;
      let iv = Array.unsafe_get sv (j + 1)
      and iu = Array.unsafe_get su (j + 1) in
      if iu = 0 && iv < t.widths.(id) && Bytes.unsafe_get t.forced id = '\000'
      then begin
        let sm = 1 lsl iv in
        let v =
          (Array.unsafe_get nv id land lnot sm)
          lor (Array.unsafe_get sv j lsl iv)
        in
        let u =
          (Array.unsafe_get nu id land lnot sm)
          lor (Array.unsafe_get su j lsl iv)
        in
        if v <> Array.unsafe_get nv id || u <> Array.unsafe_get nu id
        then begin
          Array.unsafe_set nv id v;
          Array.unsafe_set nu id u;
          mark t id
        end
      end;
      pc := !pc + 2
    | 44 (* wrs id lo m *) ->
      let id = Array.unsafe_get code (!pc + 1)
      and lo = Array.unsafe_get code (!pc + 2)
      and m = Array.unsafe_get code (!pc + 3) in
      decr sp;
      let j = !sp in
      let bv, bu =
        if Bytes.unsafe_get t.ov_set id = '\001' then
          (Array.unsafe_get t.ov_v id, Array.unsafe_get t.ov_u id)
        else (Array.unsafe_get nv id, Array.unsafe_get nu id)
      in
      let sm = m lsl lo in
      Array.unsafe_set t.ov_v id
        ((bv land lnot sm) lor (Array.unsafe_get sv j lsl lo));
      Array.unsafe_set t.ov_u id
        ((bu land lnot sm) lor (Array.unsafe_get su j lsl lo));
      if Bytes.unsafe_get t.ov_set id = '\000' then begin
        Bytes.unsafe_set t.ov_set id '\001';
        t.touched.(t.n_touched) <- id;
        t.n_touched <- t.n_touched + 1
      end;
      pc := !pc + 4
    | 45 (* wrsix id *) ->
      let id = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      sp := j;
      let iv = Array.unsafe_get sv (j + 1)
      and iu = Array.unsafe_get su (j + 1) in
      if iu = 0 && iv < t.widths.(id) then begin
        let bv, bu =
          if Bytes.unsafe_get t.ov_set id = '\001' then
            (Array.unsafe_get t.ov_v id, Array.unsafe_get t.ov_u id)
          else (Array.unsafe_get nv id, Array.unsafe_get nu id)
        in
        let sm = 1 lsl iv in
        Array.unsafe_set t.ov_v id
          ((bv land lnot sm) lor (Array.unsafe_get sv j lsl iv));
        Array.unsafe_set t.ov_u id
          ((bu land lnot sm) lor (Array.unsafe_get su j lsl iv));
        if Bytes.unsafe_get t.ov_set id = '\000' then begin
          Bytes.unsafe_set t.ov_set id '\001';
          t.touched.(t.n_touched) <- id;
          t.n_touched <- t.n_touched + 1
        end
      end;
      pc := !pc + 2
    | 46 (* wrn id lo m *) ->
      let id = Array.unsafe_get code (!pc + 1)
      and lo = Array.unsafe_get code (!pc + 2)
      and m = Array.unsafe_get code (!pc + 3) in
      decr sp;
      nba_push t id lo m (Array.unsafe_get sv !sp) (Array.unsafe_get su !sp);
      pc := !pc + 4
    | 47 (* wrnix id *) ->
      let id = Array.unsafe_get code (!pc + 1) in
      let j = !sp - 2 in
      sp := j;
      let iv = Array.unsafe_get sv (j + 1)
      and iu = Array.unsafe_get su (j + 1) in
      if iu = 0 && iv < t.widths.(id) then
        nba_push t id iv 1 (Array.unsafe_get sv j) (Array.unsafe_get su j);
      pc := !pc + 2
    | _ -> invalid_arg "Compile.exec: bad opcode"
  done

(* ------------------------------------------------------------------ *)
(* Engine operations                                                  *)
(* ------------------------------------------------------------------ *)

let settle t =
  if t.dirty_all then begin
    t.dirty_all <- false;
    for u = 0 to t.u.unit_count - 1 do
      enqueue t u
    done
  end;
  let budget = 64 * (t.u.unit_count + 4) in
  let executed = ref 0 in
  while t.qh <> t.qt do
    let u = t.queue.(t.qh) in
    t.qh <- (t.qh + 1) mod Array.length t.queue;
    Bytes.set t.in_queue u '\000';
    incr executed;
    if !executed > budget then begin
      let name =
        if t.last_changed >= 0 then t.d.Elab.nets.(t.last_changed).Elab.name
        else "<unknown>"
      in
      raise (Comb_loop name)
    end;
    let p = t.progs.(u) in
    if Array.length p > 0 then exec t p
  done

let clear_overlay t =
  for i = 0 to t.n_touched - 1 do
    Bytes.set t.ov_set t.touched.(i) '\000'
  done;
  t.n_touched <- 0

let step t ~edge clock =
  settle t;
  Array.iter
    (fun (edges, code) ->
      if List.exists (fun (e, id) -> e = edge && id = clock) edges then begin
        clear_overlay t;
        exec t code
      end)
    t.seqp;
  clear_overlay t;
  for i = 0 to t.n_nba - 1 do
    let id = t.nba_id.(i) in
    if Bytes.get t.forced id = '\000' then begin
      let lo = t.nba_lo.(i) in
      let sm = t.nba_m.(i) lsl lo in
      let v = (t.nv.(id) land lnot sm) lor (t.nba_v.(i) lsl lo) in
      let u = (t.nu.(id) land lnot sm) lor (t.nba_u.(i) lsl lo) in
      if v <> t.nv.(id) || u <> t.nu.(id) then begin
        t.nv.(id) <- v;
        t.nu.(id) <- u;
        mark_readers t id
      end
    end
  done;
  t.n_nba <- 0;
  t.time <- t.time + 1;
  settle t

let get_id t id = Bv.of_planes ~width:t.widths.(id) t.nv.(id) t.nu.(id)

let planes_resized t id bv =
  match Bv.planes (Bv.resize bv t.widths.(id)) with
  | Some (v, u) -> (v, u)
  | None -> assert false

let poke_id t id bv =
  if Bytes.get t.forced id = '\000' then begin
    let v, u = planes_resized t id bv in
    if v <> t.nv.(id) || u <> t.nu.(id) then begin
      t.nv.(id) <- v;
      t.nu.(id) <- u;
      mark_readers t id
    end
  end

let set_id t id bv =
  poke_id t id bv;
  settle t

let force_id t id bv =
  let v, u = planes_resized t id bv in
  Bytes.set t.forced id '\001';
  t.nv.(id) <- v;
  t.nu.(id) <- u;
  mark_readers t id;
  settle t

let release_id t id =
  Bytes.set t.forced id '\000';
  enqueue t id;
  mark_readers t id;
  settle t

let forced_id t id = Bytes.get t.forced id = '\001'

let rerun_unit = enqueue

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

(* Assembling the per-unit programs is the expensive, design-pure half
   of [create]; the mutable runtime state is cheap.  Splitting the two
   lets callers that run many simulations of the same design (replay
   shards one simulator per trace) assemble once and instantiate per
   run. *)
type prog = {
  pd : Elab.t;
  pu : units;
  pwidths : int array;
  pmasks : int array;
  pprogs : int array array;
  pseqp : ((Ast.edge * Elab.uid) list * int array) array;
  pmax_stack : int;
  pmax_temps : int;
}

let compile ?u (d : Elab.t) =
  (* Bytecode assembly is paid once per design (or per mutant in a
     campaign) — a span makes its share visible next to the per-trace
     replay spans in the profile. *)
  Avp_obs.Obs.span ~cat:"hdl" "hdl.compile"
    ~args:[ ("nets", Avp_obs.Obs.Int (Array.length d.Elab.nets)) ]
  @@ fun () ->
  let u = match u with Some u -> u | None -> units d in
  let n = Array.length d.Elab.nets in
  let max_stack = ref 1 and max_temps = ref 1 in
  let finish a =
    out a op_halt;
    assert (a.depth = 0);
    if a.maxd > !max_stack then max_stack := a.maxd;
    if a.ntemps > !max_temps then max_temps := a.ntemps;
    Array.sub a.buf 0 a.len
  in
  match
    (* Every net must fit the packed representation, driven or not:
       poke/force/get go through the planes directly. *)
    Array.iter (fun net -> ignore (chkw net.Elab.width)) d.Elab.nets;
    let progs = Array.make u.unit_count [||] in
    for id = 0 to n - 1 do
      match u.drivers.(id) with
      | [] -> ()
      | dlist ->
        let a = new_asm d ~seq_ctx:false in
        emit_driver a id dlist;
        progs.(id) <- finish a
    done;
    Array.iteri
      (fun ci body ->
        let a = new_asm d ~seq_ctx:false in
        emit_stmt a body;
        progs.(n + ci) <- finish a)
      u.comb;
    let seqp =
      Array.map
        (fun (edges, body) ->
          let a = new_asm d ~seq_ctx:true in
          emit_stmt a body;
          (edges, finish a))
        u.seq
    in
    (progs, seqp)
  with
  | exception Unsupported -> None
  | exception Invalid_argument _ -> None
  | progs, seqp ->
    let widths = Array.map (fun net -> net.Elab.width) d.Elab.nets in
    Some
      {
        pd = d;
        pu = u;
        pwidths = widths;
        pmasks = Array.map msk widths;
        pprogs = progs;
        pseqp = seqp;
        pmax_stack = !max_stack;
        pmax_temps = !max_temps;
      }

let instantiate (p : prog) =
  let d = p.pd and u = p.pu in
  let n = Array.length d.Elab.nets in
  let nv =
    Array.init n (fun i ->
        match d.Elab.nets.(i).Elab.kind with
        | Ast.Reg -> p.pmasks.(i) (* all X *)
        | Ast.Wire -> 0 (* all Z *))
  in
  {
    d;
    u;
    widths = p.pwidths;
    nv;
    nu = Array.copy p.pmasks;
    forced = Bytes.make n '\000';
    progs = p.pprogs;
    seqp = p.pseqp;
    sv = Array.make (p.pmax_stack + 1) 0;
    su = Array.make (p.pmax_stack + 1) 0;
    tv = Array.make p.pmax_temps 0;
    tu = Array.make p.pmax_temps 0;
    ov_v = Array.make n 0;
    ov_u = Array.make n 0;
    ov_set = Bytes.make n '\000';
    touched = Array.make (max n 1) 0;
    n_touched = 0;
    nba_id = Array.make 16 0;
    nba_lo = Array.make 16 0;
    nba_m = Array.make 16 0;
    nba_v = Array.make 16 0;
    nba_u = Array.make 16 0;
    n_nba = 0;
    queue = Array.make (u.unit_count + 1) 0;
    qh = 0;
    qt = 0;
    in_queue = Bytes.make (max u.unit_count 1) '\000';
    dirty_all = true;
    time = 0;
    last_changed = -1;
  }

let create ?u (d : Elab.t) =
  Option.map instantiate (compile ?u d)
