(* Bit-sliced batched simulation: up to 62 independent simulations of
   one design advance word-parallel through a single compiled kernel.

   The representation is the transpose of the packed [Bv]: where a
   packed vector holds a net's bits in two plane words, here every
   net keeps one word PER BIT, and bit L of that word belongs to lane
   L ([Avp_logic.Bv_sliced]).  All evaluation-unit structure — driver
   resolution, worklist settling over [Compile.units], the seq-process
   blocking overlay, the NBA commit queue, per-net force state —
   mirrors the interpreter ([Sim]) exactly, so lane L of a batched run
   is bit-identical to a scalar run; the interpreter stays the
   differential oracle.

   Mutant schemata: [create_schemata] compiles the pristine design
   ONCE with per-lane mutation selects.  Each vetted mutant differs
   from the base elaboration at a single expression site (or turns one
   nonblocking assign into a Nop — the drop-assign family), so the
   merged program carries [XSel (lane_mask, mutant_expr, original)]
   nodes — a lane-masked mux between the two expressions — and
   [XDrop (lane_mask, stmt)] guards.  A full mutation campaign over N
   mutants then costs ceil(N/62) word-parallel replays instead of N
   sequential ones.

   The kernel is closure-compiled rather than bytecode: control flow
   is predicated (an If runs BOTH branches, each under the lane mask
   of the lanes that took it), so per-step cost is roughly the union
   of all lanes' work — which is exactly what the 62-way parallelism
   pays for. *)

open Avp_logic
module Sl = Bv_sliced

let lmask = Sl.lmask

(* ------------------------------------------------------------------ *)
(* Schemata IR: the elaborated design plus per-lane mutation selects  *)
(* ------------------------------------------------------------------ *)

type xe =
  | XConst of Bv.t
  | XNet of Elab.uid
  | XIndex of Elab.uid * xe
  | XRange of Elab.uid * int * int
  | XUnop of Ast.unop * xe
  | XBinop of Ast.binop * xe * xe
  | XTernary of xe * xe * xe
  | XConcat of xe list
  | XRepeat of int * xe
  | XSel of int * xe * xe  (** lanes in the mask read the first arm *)

type xs =
  | XBlock of xs list
  | XBlocking of Elab.elv * xe
  | XNonblocking of Elab.elv * xe
  | XIf of xe * xs * xs option
  | XCase of xe * (xe list * xs) list * xs option
  | XNop
  | XDrop of int * xs  (** lanes in the mask skip the statement *)

type xp =
  | XAssign of Elab.elv * xe
  | XComb of xs
  | XSeq of (Ast.edge * Elab.uid) list * xs

let rec inj_e : Elab.eexpr -> xe = function
  | Elab.Const v -> XConst v
  | Elab.Net id -> XNet id
  | Elab.Index (id, i) -> XIndex (id, inj_e i)
  | Elab.Range (id, hi, lo) -> XRange (id, hi, lo)
  | Elab.Unop (op, e) -> XUnop (op, inj_e e)
  | Elab.Binop (op, a, b) -> XBinop (op, inj_e a, inj_e b)
  | Elab.Ternary (c, a, b) -> XTernary (inj_e c, inj_e a, inj_e b)
  | Elab.Concat es -> XConcat (List.map inj_e es)
  | Elab.Repeat (n, e) -> XRepeat (n, inj_e e)

let rec inj_s : Elab.estmt -> xs = function
  | Elab.Block ss -> XBlock (List.map inj_s ss)
  | Elab.Blocking (lv, e) -> XBlocking (lv, inj_e e)
  | Elab.Nonblocking (lv, e) -> XNonblocking (lv, inj_e e)
  | Elab.If (c, t, e) -> XIf (inj_e c, inj_s t, Option.map inj_s e)
  | Elab.Case (sel, items, dflt) ->
    XCase
      ( inj_e sel,
        List.map (fun (ls, s) -> (List.map inj_e ls, inj_s s)) items,
        Option.map inj_s dflt )
  | Elab.Nop -> XNop

let inj_p : Elab.process -> xp = function
  | Elab.Assign (lv, e) -> XAssign (lv, inj_e e)
  | Elab.Comb s -> XComb (inj_s s)
  | Elab.Seq (edges, s) -> XSeq (edges, inj_s s)

(* ------------------------------------------------------------------ *)
(* Merging one mutant into the IR                                     *)
(* ------------------------------------------------------------------ *)

(* Every mutation operator rewrites a single expression subtree (or
   turns one nonblocking assignment into a Nop) and never touches
   lvalues, so base and mutant elaborations are structurally parallel
   with exactly one divergence.  The merge walks both in lockstep; at
   the divergence it wraps the current IR node in a lane select.
   Wrapping any ancestor of the real site is equally correct (those
   lanes just read the whole mutant subtree), so the walk descends
   only while the divergence stays confined to one child and wraps
   where that stops being decidable.  [None] means the mutant cannot
   be scheduled into the schemata and falls back to the scalar path. *)

exception Mismatch

let rec merge_e ~mask (cur : xe) (base : Elab.eexpr) (mut : Elab.eexpr) : xe =
  if base = mut then cur
  else
    match cur with
    | XSel (m, a, inner) -> XSel (m, a, merge_e ~mask inner base mut)
    | _ -> (
      let site () = XSel (mask, inj_e mut, cur) in
      match (cur, base, mut) with
      | XIndex (ci, cx), Elab.Index (bi, bx), Elab.Index (mi, mx)
        when bi = mi && ci = bi ->
        XIndex (ci, merge_e ~mask cx bx mx)
      | XUnop (cop, cx), Elab.Unop (bop, bx), Elab.Unop (mop, mx)
        when bop = mop && cop = bop ->
        XUnop (cop, merge_e ~mask cx bx mx)
      | ( XBinop (cop, ca, cb),
          Elab.Binop (bop, ba, bb),
          Elab.Binop (mop, ma, mb) )
        when bop = mop && cop = bop ->
        if ba = ma then XBinop (cop, ca, merge_e ~mask cb bb mb)
        else if bb = mb then XBinop (cop, merge_e ~mask ca ba ma, cb)
        else site ()
      | ( XTernary (cc, ca, cb),
          Elab.Ternary (bc, ba, bb),
          Elab.Ternary (mc, ma, mb) ) ->
        if ba = ma && bb = mb then XTernary (merge_e ~mask cc bc mc, ca, cb)
        else if bc = mc && bb = mb then
          XTernary (cc, merge_e ~mask ca ba ma, cb)
        else if bc = mc && ba = ma then
          XTernary (cc, ca, merge_e ~mask cb bb mb)
        else site ()
      | XConcat cs, Elab.Concat bs, Elab.Concat ms
        when List.length bs = List.length ms
             && List.length cs = List.length bs -> (
        match
          List.map2 (fun b m -> b <> m) bs ms
          |> List.mapi (fun i d -> (i, d))
          |> List.filter snd
        with
        | [ (i, _) ] ->
          XConcat
            (List.mapi
               (fun j c ->
                 if j = i then
                   merge_e ~mask c (List.nth bs i) (List.nth ms i)
                 else c)
               cs)
        | _ -> site ())
      | XRepeat (cn, cx), Elab.Repeat (bn, bx), Elab.Repeat (mn, mx)
        when bn = mn && cn = bn ->
        XRepeat (cn, merge_e ~mask cx bx mx)
      | _ -> site ())

let rec merge_s ~mask (cur : xs) (base : Elab.estmt) (mut : Elab.estmt) : xs =
  if base = mut then cur
  else
    match cur with
    | XDrop (m, inner) -> XDrop (m, merge_s ~mask inner base mut)
    | _ -> (
      match (cur, base, mut) with
      | XNonblocking _, Elab.Nonblocking _, Elab.Nop ->
        (* The drop-assign family: the statement vanishes for these
           lanes. *)
        XDrop (mask, cur)
      | XBlock cs, Elab.Block bs, Elab.Block ms
        when List.length bs = List.length ms
             && List.length cs = List.length bs -> (
        match
          List.map2 (fun b m -> b <> m) bs ms
          |> List.mapi (fun i d -> (i, d))
          |> List.filter snd
        with
        | [ (i, _) ] ->
          XBlock
            (List.mapi
               (fun j c ->
                 if j = i then
                   merge_s ~mask c (List.nth bs i) (List.nth ms i)
                 else c)
               cs)
        | _ -> raise Mismatch)
      | XBlocking (clv, ce), Elab.Blocking (blv, be), Elab.Blocking (mlv, me)
        when blv = mlv && clv = blv ->
        XBlocking (clv, merge_e ~mask ce be me)
      | ( XNonblocking (clv, ce),
          Elab.Nonblocking (blv, be),
          Elab.Nonblocking (mlv, me) )
        when blv = mlv && clv = blv ->
        XNonblocking (clv, merge_e ~mask ce be me)
      | XIf (cc, ct, ce), Elab.If (bc, bt, be), Elab.If (mc, mt, me) ->
        if bt = mt && be = me then XIf (merge_e ~mask cc bc mc, ct, ce)
        else if bc = mc && be = me then
          XIf (cc, merge_s ~mask ct bt mt, ce)
        else if bc = mc && bt = mt then begin
          match (ce, be, me) with
          | Some ce, Some be, Some me ->
            XIf (cc, ct, Some (merge_s ~mask ce be me))
          | _ -> raise Mismatch
        end
        else raise Mismatch
      | ( XCase (cs, cis, cd),
          Elab.Case (bs, bis, bd),
          Elab.Case (ms, mis, md) )
        when List.length bis = List.length mis
             && List.length cis = List.length bis ->
        if bis = mis && bd = md then XCase (merge_e ~mask cs bs ms, cis, cd)
        else if bs = ms && bis = mis then begin
          match (cd, bd, md) with
          | Some cd, Some bd, Some md ->
            XCase (cs, cis, Some (merge_s ~mask cd bd md))
          | _ -> raise Mismatch
        end
        else if bs = ms && bd = md then begin
          match
            List.map2 (fun b m -> b <> m) bis mis
            |> List.mapi (fun i d -> (i, d))
            |> List.filter snd
          with
          | [ (i, _) ] ->
            let bl, bb = List.nth bis i and ml, mb = List.nth mis i in
            let cl, cb = List.nth cis i in
            let item =
              if bb = mb then begin
                (* One label differs. *)
                if List.length bl <> List.length ml then raise Mismatch;
                match
                  List.map2 (fun b m -> b <> m) bl ml
                  |> List.mapi (fun j d -> (j, d))
                  |> List.filter snd
                with
                | [ (j, _) ] ->
                  ( List.mapi
                      (fun k c ->
                        if k = j then
                          merge_e ~mask c (List.nth bl j) (List.nth ml j)
                        else c)
                      cl,
                    cb )
                | _ -> raise Mismatch
              end
              else if bl = ml then (cl, merge_s ~mask cb bb mb)
              else raise Mismatch
            in
            XCase
              (cs, List.mapi (fun j it -> if j = i then item else it) cis, cd)
          | _ -> raise Mismatch
        end
        else raise Mismatch
      | _ -> raise Mismatch)

let merge_p ~mask (cur : xp) (base : Elab.process) (mut : Elab.process) : xp =
  match (cur, base, mut) with
  | XAssign (clv, ce), Elab.Assign (blv, be), Elab.Assign (mlv, me)
    when blv = mlv && clv = blv ->
    XAssign (clv, merge_e ~mask ce be me)
  | XComb cs, Elab.Comb bs, Elab.Comb ms -> XComb (merge_s ~mask cs bs ms)
  | XSeq (ced, cs), Elab.Seq (bed, bs), Elab.Seq (med, ms)
    when bed = med && ced = bed ->
    XSeq (ced, merge_s ~mask cs bs ms)
  | _ -> raise Mismatch

(* Merge mutant [md] (lane mask [mask]) into the IR process array.
   Returns false — leaving the IR untouched — when the mutant cannot
   be scheduled (unexpected shape divergence, differing net tables). *)
let merge_mutant ~mask (procs : xp array) (base : Elab.t) (md : Elab.t) =
  let ok =
    Array.length base.Elab.nets = Array.length md.Elab.nets
    && Array.for_all2 ( = ) base.Elab.nets md.Elab.nets
    && Array.length base.Elab.processes = Array.length md.Elab.processes
  in
  if not ok then false
  else begin
    let diffs = ref [] in
    Array.iteri
      (fun i bp ->
        if bp <> md.Elab.processes.(i) then diffs := i :: !diffs)
      base.Elab.processes;
    match !diffs with
    | [] -> true (* elaborates identically to the base: a pristine lane *)
    | [ i ] -> (
      match
        merge_p ~mask procs.(i) base.Elab.processes.(i)
          md.Elab.processes.(i)
      with
      | p ->
        procs.(i) <- p;
        true
      | exception Mismatch -> false)
    | _ -> false
  end

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)
(* ------------------------------------------------------------------ *)

type st = {
  d : Elab.t;
  u : Compile.units;
  lanes : int;
  amask : int;  (** active-lane mask, [(1 lsl lanes) - 1] *)
  widths : int array;
  nv : int array array;  (** per net, one value word per bit *)
  nu : int array array;
  forced : int array;  (** per net, mask of forced lanes *)
  (* Blocking-write overlay for sequential processes, per net. *)
  ov_v : int array array;
  ov_u : int array array;
  ov_set : Bytes.t;
  touched : int array;
  mutable n_touched : int;
  mutable nba : (unit -> unit) list;  (** reversed commit closures *)
  queue : int array;
  mutable qh : int;
  mutable qt : int;
  in_queue : Bytes.t;
  mutable dirty_all : bool;
  mutable frozen : int;  (** lanes whose writes are suppressed *)
  mutable time : int;
  mutable last_changed : int;
}

type t = {
  st : st;
  units_fn : (unit -> unit) array;  (** per unit id, [fun () -> ()] when idle *)
  seq_fn : ((Ast.edge * Elab.uid) list * (unit -> unit)) array;
}

let lanes t = t.st.lanes
let amask t = t.st.amask

let enqueue st unit =
  if Bytes.get st.in_queue unit = '\000' then begin
    Bytes.set st.in_queue unit '\001';
    st.queue.(st.qt) <- unit;
    st.qt <- (st.qt + 1) mod Array.length st.queue
  end

let mark_readers st id =
  let rs = st.u.Compile.readers.(id) in
  for i = 0 to Array.length rs - 1 do
    enqueue st rs.(i)
  done

let mark st id =
  st.last_changed <- id;
  mark_readers st id

(* ------------------------------------------------------------------ *)
(* Expression compilation                                             *)
(* ------------------------------------------------------------------ *)

(* Reads return views over the live net words; every operator
   allocates fresh words, so views stay valid for the extent of one
   statement's evaluation.  Values whose lifetime crosses a write
   boundary (NBA) capture the words they need as immutable ints. *)

let read_net st ~seq id : unit -> Sl.t =
  let w = st.widths.(id) in
  (* The per-net words are filled in place and never reassigned, so
     the views are allocated once at compile time. *)
  let cur = { Sl.w; v = st.nv.(id); u = st.nu.(id) } in
  if seq then begin
    let old = { Sl.w; v = st.ov_v.(id); u = st.ov_u.(id) } in
    fun () -> if Bytes.get st.ov_set id = '\001' then old else cur
  end
  else fun () -> cur

let rec xe_width (d : Elab.t) (e : xe) : int =
  match e with
  | XConst bv -> Bv.width bv
  | XNet id -> d.Elab.nets.(id).Elab.width
  | XIndex _ -> 1
  | XRange (_, hi, lo) -> hi - lo + 1
  | XUnop ((Ast.Not | Ast.Uand | Ast.Uor | Ast.Uxor), _) -> 1
  | XUnop ((Ast.Bnot | Ast.Neg), e) -> xe_width d e
  | XBinop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Band | Ast.Bor | Ast.Bxor), a, b)
    ->
    max (xe_width d a) (xe_width d b)
  | XBinop
      ( ( Ast.Land | Ast.Lor | Ast.Eq | Ast.Neq | Ast.Ceq | Ast.Cneq | Ast.Lt
        | Ast.Le | Ast.Gt | Ast.Ge ),
        _,
        _ ) ->
    1
  | XBinop ((Ast.Shl | Ast.Shr), a, _) -> xe_width d a
  | XTernary (_, a, b) -> max (xe_width d a) (xe_width d b)
  | XConcat es -> List.fold_left (fun acc e -> acc + xe_width d e) 0 es
  | XRepeat (n, e) -> n * xe_width d e
  | XSel (_, a, b) -> max (xe_width d a) (xe_width d b)

(* Every node's result width is static, so each compiled node owns
   its destination buffer, allocated here once: a settle pass fills
   buffers in place and allocates nothing.  A node's buffer is only
   overwritten by that node's own next evaluation, and every consumer
   (parent node, commit, NBA capture) copies what it needs before
   then — the same single-statement lifetime the net views have. *)
let rec cexpr st ~seq (e : xe) : unit -> Sl.t =
  match e with
  | XConst bv ->
    let c = Sl.broadcast bv in
    fun () -> c
  | XNet id -> read_net st ~seq id
  | XIndex (id, ie) ->
    let rd = read_net st ~seq id and gi = cexpr st ~seq ie in
    let dst = Sl.create 1 in
    fun () ->
      Sl.index_into dst (rd ()) (gi ());
      dst
  | XRange (id, hi, lo) ->
    if lo < 0 || hi < lo || hi >= st.widths.(id) then
      invalid_arg "Sliced.select: bad range";
    let rd = read_net st ~seq id in
    let dst = Sl.create (hi - lo + 1) in
    fun () ->
      Sl.select_into dst (rd ()) ~lo;
      dst
  | XUnop (op, e) ->
    let g = cexpr st ~seq e in
    let f, w =
      match op with
      | Ast.Not -> (Sl.logical_not_into, 1)
      | Ast.Bnot -> (Sl.lognot_into, xe_width st.d e)
      | Ast.Uand -> (Sl.reduce_and_into, 1)
      | Ast.Uor -> (Sl.reduce_or_into, 1)
      | Ast.Uxor -> (Sl.reduce_xor_into, 1)
      | Ast.Neg -> (Sl.neg_into, xe_width st.d e)
    in
    let dst = Sl.create w in
    fun () ->
      f dst (g ());
      dst
  | XBinop (op, a, b) as e ->
    let ga = cexpr st ~seq a and gb = cexpr st ~seq b in
    let f =
      match op with
      | Ast.Add -> Sl.add_into
      | Ast.Sub -> Sl.sub_into
      | Ast.Mul -> Sl.mul_into
      | Ast.Band -> Sl.logand_into
      | Ast.Bor -> Sl.logor_into
      | Ast.Bxor -> Sl.logxor_into
      | Ast.Land -> Sl.logical_and_into
      | Ast.Lor -> Sl.logical_or_into
      | Ast.Eq -> Sl.eq_into
      | Ast.Neq -> Sl.neq_into
      | Ast.Ceq -> Sl.case_eq_into
      | Ast.Cneq -> Sl.case_neq_into
      | Ast.Lt -> Sl.lt_into
      | Ast.Le -> Sl.le_into
      | Ast.Gt -> Sl.gt_into
      | Ast.Ge -> Sl.ge_into
      | Ast.Shl -> Sl.shift_left_into
      | Ast.Shr -> Sl.shift_right_into
    in
    let dst = Sl.create (xe_width st.d e) in
    fun () ->
      f dst (ga ()) (gb ());
      dst
  | XTernary (c, a, b) as e ->
    let gc = cexpr st ~seq c
    and ga = cexpr st ~seq a
    and gb = cexpr st ~seq b in
    let dst = Sl.create (xe_width st.d e) in
    fun () ->
      Sl.mux_into ~sel:(gc ()) dst (ga ()) (gb ());
      dst
  | XConcat es -> (
    match es with
    | [] -> invalid_arg "empty concat"
    | es ->
      (* MSB-first: the last element lands at bit 0. *)
      let parts = List.map (fun e -> (cexpr st ~seq e, xe_width st.d e)) es in
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 parts in
      let dst = Sl.create total in
      let parts =
        let off = ref total in
        List.map
          (fun (g, w) ->
            off := !off - w;
            (g, w, !off))
          parts
      in
      fun () ->
        List.iter
          (fun (g, w, off) ->
            let p = g () in
            Array.blit p.Sl.v 0 dst.Sl.v off w;
            Array.blit p.Sl.u 0 dst.Sl.u off w)
          parts;
        dst)
  | XRepeat (n, e) ->
    if n <= 0 then invalid_arg "Sliced.repeat: count must be positive";
    let g = cexpr st ~seq e in
    let w = xe_width st.d e in
    let dst = Sl.create (n * w) in
    fun () ->
      let p = g () in
      for i = 0 to n - 1 do
        Array.blit p.Sl.v 0 dst.Sl.v (i * w) w;
        Array.blit p.Sl.u 0 dst.Sl.u (i * w) w
      done;
      dst
  | XSel (mask, a, b) as e ->
    let ga = cexpr st ~seq a and gb = cexpr st ~seq b in
    let dst = Sl.create (xe_width st.d e) in
    fun () ->
      Sl.merge_into ~mask dst (ga ()) (gb ());
      dst

(* Ternaries with unequal arm widths are rejected (per-lane result
   widths would diverge); callers fall back to the interpreter. *)
exception Unsupported

let rec check_e (d : Elab.t) (e : xe) =
  match e with
  | XConst _ | XNet _ | XRange _ -> ()
  | XIndex (_, i) -> check_e d i
  | XUnop (_, e) | XRepeat (_, e) -> check_e d e
  | XBinop (_, a, b) -> check_e d a; check_e d b
  | XTernary (c, a, b) ->
    check_e d c;
    check_e d a;
    check_e d b;
    if xe_width d a <> xe_width d b then raise Unsupported
  | XConcat es -> List.iter (check_e d) es
  | XSel (_, a, b) -> check_e d a; check_e d b
let rec check_s d (s : xs) =
  match s with
  | XBlock ss -> List.iter (check_s d) ss
  | XBlocking (_, e) | XNonblocking (_, e) -> check_e d e
  | XIf (c, t, e) ->
    check_e d c;
    check_s d t;
    Option.iter (check_s d) e
  | XCase (sel, items, dflt) ->
    check_e d sel;
    List.iter
      (fun (ls, s) ->
        List.iter (check_e d) ls;
        check_s d s)
      items;
    Option.iter (check_s d) dflt
  | XNop -> ()
  | XDrop (_, s) -> check_s d s

(* ------------------------------------------------------------------ *)
(* Writes                                                             *)
(* ------------------------------------------------------------------ *)

(* Commit [value] bits [voff..voff+w-1] into net [id] bits
   [lo..lo+w-1] for the lanes in [en], skipping forced lanes, marking
   readers on change — the comb blocking write (wrc). *)
let commit_comb st id ~lo ~w (value : Sl.t) ~voff en =
  let en = en land lnot st.forced.(id) land lnot st.frozen in
  if en <> 0 then begin
    let nv = st.nv.(id) and nu = st.nu.(id) in
    let changed = ref false in
    for k = 0 to w - 1 do
      let j = lo + k in
      let vv = if voff + k < value.Sl.w then value.Sl.v.(voff + k) else 0
      and vu = if voff + k < value.Sl.w then value.Sl.u.(voff + k) else 0 in
      let v' = (nv.(j) land lnot en) lor (vv land en)
      and u' = (nu.(j) land lnot en) lor (vu land en) in
      if v' <> nv.(j) || u' <> nu.(j) then begin
        nv.(j) <- v';
        nu.(j) <- u';
        changed := true
      end
    done;
    if !changed then mark st id
  end

(* Ensure the seq-process overlay holds net [id], copying the live
   words on first touch. *)
let overlay_touch st id =
  if Bytes.get st.ov_set id = '\000' then begin
    Bytes.set st.ov_set id '\001';
    st.touched.(st.n_touched) <- id;
    st.n_touched <- st.n_touched + 1;
    Array.blit st.nv.(id) 0 st.ov_v.(id) 0 st.widths.(id);
    Array.blit st.nu.(id) 0 st.ov_u.(id) 0 st.widths.(id)
  end

(* Seq blocking write (wrs): overlay only, no forced check, no
   marking — the overlay is read-through state for later statements
   of the same process and is never committed to the nets. *)
let commit_overlay st id ~lo ~w (value : Sl.t) ~voff en =
  if en <> 0 then begin
    overlay_touch st id;
    let ov = st.ov_v.(id) and ou = st.ov_u.(id) in
    for k = 0 to w - 1 do
      let j = lo + k in
      let vv = if voff + k < value.Sl.w then value.Sl.v.(voff + k) else 0
      and vu = if voff + k < value.Sl.w then value.Sl.u.(voff + k) else 0 in
      ov.(j) <- (ov.(j) land lnot en) lor (vv land en);
      ou.(j) <- (ou.(j) land lnot en) lor (vu land en)
    done
  end

(* Nonblocking write: capture the words now, commit at the end of the
   step, checking forced lanes at commit time (wrn). *)
let commit_nba st id ~lo ~w (value : Sl.t) ~voff en =
  if en <> 0 then begin
    let vs = Array.init w (fun k ->
        if voff + k < value.Sl.w then value.Sl.v.(voff + k) else 0)
    and us = Array.init w (fun k ->
        if voff + k < value.Sl.w then value.Sl.u.(voff + k) else 0) in
    st.nba <-
      (fun () ->
        let en = en land lnot st.forced.(id) land lnot st.frozen in
        if en <> 0 then begin
          let nv = st.nv.(id) and nu = st.nu.(id) in
          let changed = ref false in
          for k = 0 to w - 1 do
            let j = lo + k in
            let v' = (nv.(j) land lnot en) lor (vs.(k) land en)
            and u' = (nu.(j) land lnot en) lor (us.(k) land en) in
            if v' <> nv.(j) || u' <> nu.(j) then begin
              nv.(j) <- v';
              nu.(j) <- u';
              changed := true
            end
          done;
          if !changed then mark_readers st id
        end)
      :: st.nba
  end

type write_mode = Direct | Overlay | Nba

(* Compile an lvalue into a writer: [wr en value] splits [value]
   (resized to the lvalue's total width) across the components,
   LSB-first, exactly like the interpreter's lv_pieces.  Dynamic
   index components decode per lane; undefined or out-of-range lanes
   produce no write. *)
let clv st ~seq ~mode (lv : Elab.elv) : int -> Sl.t -> unit =
  let commit =
    match mode with
    | Direct -> commit_comb st
    | Overlay -> commit_overlay st
    | Nba -> commit_nba st
  in
  (* Build per-component writers with their LSB offsets into the
     value. *)
  let writers = ref [] in
  let rec walk lv offset =
    match lv with
    | Elab.Lnet id ->
      let w = st.widths.(id) in
      writers :=
        (fun en value -> commit id ~lo:0 ~w value ~voff:offset en)
        :: !writers;
      offset + w
    | Elab.Lrange (id, hi, lo) ->
      let w = hi - lo + 1 in
      writers :=
        (fun en value -> commit id ~lo ~w value ~voff:offset en) :: !writers;
      offset + w
    | Elab.Lindex (id, idx) ->
      let gi = cexpr st ~seq (inj_e idx) in
      let w = st.widths.(id) in
      writers :=
        (fun en value ->
          let iv = gi () in
          for n = 0 to w - 1 do
            let enn = en land Sl.eq_const_lanes iv n in
            if enn <> 0 then commit id ~lo:n ~w:1 value ~voff:offset enn
          done)
        :: !writers;
      offset + 1
    | Elab.Lconcat ls -> List.fold_left (fun off l -> walk l off) offset ls
  in
  (* Components are laid out LSB-first in reverse concat order. *)
  ignore
    (match lv with
    | Elab.Lconcat ls -> List.fold_left (fun off l -> walk l off) 0 (List.rev ls)
    | _ -> walk lv 0);
  let writers = List.rev !writers in
  (* No resize: the commit paths zero-extend reads past the value's
     width, and the component windows never read past the lvalue's
     total width — the same result resizing would produce. *)
  fun en value -> List.iter (fun wr -> wr en value) writers

(* ------------------------------------------------------------------ *)
(* Statement compilation (predicated control flow)                    *)
(* ------------------------------------------------------------------ *)

let rec cstmt st ~seq (s : xs) : int -> unit =
  match s with
  | XNop -> fun _ -> ()
  | XBlock ss ->
    let fs = List.map (cstmt st ~seq) ss in
    fun en -> List.iter (fun f -> f en) fs
  | XDrop (mask, s) ->
    let f = cstmt st ~seq s in
    fun en -> f (en land lnot mask)
  | XBlocking (lv, e) ->
    let ge = cexpr st ~seq e in
    let wr = clv st ~seq ~mode:(if seq then Overlay else Direct) lv in
    fun en -> if en <> 0 then wr en (ge ())
  | XNonblocking (lv, e) ->
    (* In a comb process a nonblocking write degenerates to blocking,
       as in both scalar engines. *)
    let ge = cexpr st ~seq e in
    let wr = clv st ~seq ~mode:(if seq then Nba else Direct) lv in
    fun en -> if en <> 0 then wr en (ge ())
  | XIf (c, t, e) ->
    let gc = cexpr st ~seq c in
    let ft = cstmt st ~seq t in
    let fe = match e with Some s -> cstmt st ~seq s | None -> fun _ -> () in
    fun en ->
      if en <> 0 then begin
        (* Lanes with a definitely-true condition take the then
           branch; false AND undecided lanes take the else branch,
           matching the interpreter. *)
        let t1, t0, tx = Sl.truth (gc ()) in
        ft (en land t1);
        fe (en land (t0 lor tx))
      end
  | XCase (sel, items, dflt) ->
    let gsel = cexpr st ~seq sel in
    let citems =
      List.map
        (fun (ls, s) -> (List.map (cexpr st ~seq) ls, cstmt st ~seq s))
        items
    in
    let fd =
      match dflt with Some s -> cstmt st ~seq s | None -> fun _ -> ()
    in
    let ceq = Sl.create 1 in
    fun en ->
      if en <> 0 then begin
        let vs = gsel () in
        (* First matching item claims the lane ([===] labels, always
           defined); remaining lanes fall through to the default. *)
        let rem = ref en in
        List.iter
          (fun (gls, body) ->
            if !rem <> 0 then begin
              let m =
                List.fold_left
                  (fun acc gl ->
                    Sl.case_eq_into ceq vs (gl ());
                    acc lor ceq.Sl.v.(0))
                  0 gls
              in
              let m = !rem land m in
              if m <> 0 then begin
                body m;
                rem := !rem land lnot m
              end
            end)
          citems;
        fd !rem
      end

(* ------------------------------------------------------------------ *)
(* Driver (continuous-assignment) units                               *)
(* ------------------------------------------------------------------ *)

(* Resolution of every contribution to net [nid]: start from all-Z,
   insert each driver's pieces of this net (other lanes/bits stay Z),
   fold with wire resolution, and commit as a comb write — the
   closure analogue of emit_driver. *)
let cdriver st nid (dlist : (Elab.elv * xe) list) : unit -> unit =
  let wn = st.widths.(nid) in
  match dlist with
  | [ (Elab.Lnet id, e) ] when id = nid ->
    (* The common shape: one driver covering the whole net.  Wire
       resolution against all-Z is the identity, so the expression
       commits directly (the commit zero-extends/truncates to the
       net width). *)
    let ge = cexpr st ~seq:false e in
    fun () -> commit_comb st nid ~lo:0 ~w:wn (ge ()) ~voff:0 st.amask
  | _ ->
  let contribs =
    List.map
      (fun (lv, e) ->
        let ge = cexpr st ~seq:false e in
        match lv with
        | Elab.Lnet id when id = nid ->
          fun () -> Sl.resize (ge ()) wn
        | _ ->
          let rec lv_width = function
            | Elab.Lnet id -> st.widths.(id)
            | Elab.Lindex _ -> 1
            | Elab.Lrange (_, hi, lo) -> hi - lo + 1
            | Elab.Lconcat ls ->
              List.fold_left (fun a l -> a + lv_width l) 0 ls
          in
          let total = lv_width lv in
          (* Static insertion plan: (net-bit, value-bit) pairs, plus
             dynamic-index slots decoded per lane at run time. *)
          let stat = ref [] and dyn = ref [] in
          let rec walk lv off =
            match lv with
            | Elab.Lnet id ->
              let w = st.widths.(id) in
              if id = nid then
                for k = 0 to w - 1 do
                  stat := (k, off + k) :: !stat
                done;
              off + w
            | Elab.Lrange (id, hi, lo) ->
              let w = hi - lo + 1 in
              if id = nid then
                for k = 0 to w - 1 do
                  stat := (lo + k, off + k) :: !stat
                done;
              off + w
            | Elab.Lindex (id, idx) ->
              if id = nid then
                dyn := (cexpr st ~seq:false (inj_e idx), off) :: !dyn;
              off + 1
            | Elab.Lconcat ls ->
              List.fold_left (fun o l -> walk l o) off (List.rev ls)
          in
          ignore (walk lv 0);
          let stat = List.rev !stat and dyn = List.rev !dyn in
          fun () ->
            let value = Sl.resize (ge ()) total in
            let c =
              { Sl.w = wn; v = Array.make wn 0; u = Array.make wn lmask }
            in
            List.iter
              (fun (nbit, vbit) ->
                c.Sl.v.(nbit) <- value.Sl.v.(vbit);
                c.Sl.u.(nbit) <- value.Sl.u.(vbit))
              stat;
            List.iter
              (fun (gi, vbit) ->
                let iv = gi () in
                for n = 0 to wn - 1 do
                  let en = Sl.eq_const_lanes iv n in
                  if en <> 0 then begin
                    c.Sl.v.(n) <-
                      (c.Sl.v.(n) land lnot en)
                      lor (value.Sl.v.(vbit) land en);
                    c.Sl.u.(n) <-
                      (c.Sl.u.(n) land lnot en)
                      lor (value.Sl.u.(vbit) land en)
                  end
                done)
              dyn;
            c)
      dlist
  in
  fun () ->
    let z = { Sl.w = wn; v = Array.make wn 0; u = Array.make wn lmask } in
    let r =
      List.fold_left (fun acc g -> Sl.resolve acc (g ())) z contribs
    in
    commit_comb st nid ~lo:0 ~w:wn r ~voff:0 st.amask

(* ------------------------------------------------------------------ *)
(* Engine operations                                                  *)
(* ------------------------------------------------------------------ *)

let settle t =
  let st = t.st in
  if st.dirty_all then begin
    st.dirty_all <- false;
    for u = 0 to st.u.Compile.unit_count - 1 do
      enqueue st u
    done
  end;
  (* The scalar budget, scaled by the lane count: a unit re-runs when
     ANY lane's inputs changed, so the worst case is each lane's
     scalar trajectory interleaved. *)
  let budget = 64 * (st.u.Compile.unit_count + 4) * max 1 st.lanes in
  let executed = ref 0 in
  while st.qh <> st.qt do
    let u = st.queue.(st.qh) in
    st.qh <- (st.qh + 1) mod Array.length st.queue;
    Bytes.set st.in_queue u '\000';
    incr executed;
    if !executed > budget then begin
      let name =
        if st.last_changed >= 0 then
          st.d.Elab.nets.(st.last_changed).Elab.name
        else "<unknown>"
      in
      raise (Compile.Comb_loop name)
    end;
    t.units_fn.(u) ()
  done

let clear_overlay st =
  for i = 0 to st.n_touched - 1 do
    Bytes.set st.ov_set st.touched.(i) '\000'
  done;
  st.n_touched <- 0

let step ?(edge = Ast.Posedge) t clock =
  let st = t.st in
  settle t;
  Array.iter
    (fun (edges, fn) ->
      if List.exists (fun (e, id) -> e = edge && id = clock) edges then begin
        clear_overlay st;
        fn ()
      end)
    t.seq_fn;
  clear_overlay st;
  let pending = List.rev st.nba in
  st.nba <- [];
  List.iter (fun commit -> commit ()) pending;
  st.time <- st.time + 1;
  let module Obs = Avp_obs.Obs in
  if Obs.enabled () then begin
    Obs.incr "sim.steps";
    Obs.incr ~by:st.lanes "sim.lanes"
  end;
  settle t

let planes_of st id bv =
  let w = st.widths.(id) in
  let bv = if Bv.width bv = w then bv else Bv.resize bv w in
  Sl.broadcast bv

let poke_id ?mask t id bv =
  let st = t.st in
  let mask = Option.value ~default:st.amask mask in
  let en = mask land lnot st.forced.(id) land lnot st.frozen land st.amask in
  if en <> 0 then begin
    let s = planes_of st id bv in
    let nv = st.nv.(id) and nu = st.nu.(id) in
    let changed = ref false in
    for j = 0 to st.widths.(id) - 1 do
      let v' = (nv.(j) land lnot en) lor (s.Sl.v.(j) land en)
      and u' = (nu.(j) land lnot en) lor (s.Sl.u.(j) land en) in
      if v' <> nv.(j) || u' <> nu.(j) then begin
        nv.(j) <- v';
        nu.(j) <- u';
        changed := true
      end
    done;
    if !changed then mark_readers st id
  end

(* Change detection matters here: the vector replays re-force every
   choice net every cycle, and most cycles repeat the previous value —
   skipping the readers mark when nothing changed keeps the settle
   worklist at the nets that actually toggled.  (Newly forcing an
   unchanged value needs no mark either: downstream values are already
   the fixpoint, and the forced bit only masks future commits.) *)
let force_id ?mask t id bv =
  let st = t.st in
  let mask = Option.value ~default:st.amask mask in
  let en = mask land st.amask land lnot st.frozen in
  if en <> 0 then begin
    let w = st.widths.(id) in
    let bv = if Bv.width bv = w then bv else Bv.resize bv w in
    let nv = st.nv.(id) and nu = st.nu.(id) in
    let changed = ref false in
    (match Bv.planes bv with
     | Some (pv, pu) ->
       for j = 0 to w - 1 do
         let v' =
           (nv.(j) land lnot en) lor (if (pv lsr j) land 1 = 1 then en else 0)
         and u' =
           (nu.(j) land lnot en) lor (if (pu lsr j) land 1 = 1 then en else 0)
         in
         if v' <> nv.(j) || u' <> nu.(j) then begin
           nv.(j) <- v';
           nu.(j) <- u';
           changed := true
         end
       done
     | None ->
       let s = Sl.broadcast bv in
       for j = 0 to w - 1 do
         let v' = (nv.(j) land lnot en) lor (s.Sl.v.(j) land en)
         and u' = (nu.(j) land lnot en) lor (s.Sl.u.(j) land en) in
         if v' <> nv.(j) || u' <> nu.(j) then begin
           nv.(j) <- v';
           nu.(j) <- u';
           changed := true
         end
       done);
    st.forced.(id) <- st.forced.(id) lor en;
    if !changed then mark_readers st id
  end

(* Pin one packed value per slot of [sw] consecutive lanes, transposed
   into the net's bit words in one pass: a slotted vector replay resolves
   each slot's stimulus once per cycle and writes every forced net here,
   so the per-(lane, net) forcing path — a broadcast or a planes tuple
   per call, and a readers mark each — stays out of the hot loop.  Bits
   past the packed planes read 0, as [Bv.resize] of a packed value. *)
let force_slots t id ~width:sw ~mask (pv : int array) (pu : int array) =
  let st = t.st in
  let en = mask land st.amask land lnot st.frozen in
  if en <> 0 then begin
    let nv = st.nv.(id) and nu = st.nu.(id) in
    let slot = (1 lsl sw) - 1 in
    let nslots = st.lanes / sw in
    let changed = ref false in
    for j = 0 to st.widths.(id) - 1 do
      let wv = ref 0 and wu = ref 0 in
      if j < Bv.packed_width_limit then
        for s = 0 to nslots - 1 do
          let m = slot lsl (s * sw) in
          if m land en <> 0 then begin
            if (pv.(s) lsr j) land 1 = 1 then wv := !wv lor m;
            if (pu.(s) lsr j) land 1 = 1 then wu := !wu lor m
          end
        done;
      let v' = (nv.(j) land lnot en) lor (!wv land en)
      and u' = (nu.(j) land lnot en) lor (!wu land en) in
      if v' <> nv.(j) || u' <> nu.(j) then begin
        nv.(j) <- v';
        nu.(j) <- u';
        changed := true
      end
    done;
    st.forced.(id) <- st.forced.(id) lor en;
    if !changed then mark_readers st id
  end

let release_id ?mask t id =
  let st = t.st in
  let mask = Option.value ~default:st.amask mask in
  st.forced.(id) <- st.forced.(id) land lnot mask;
  enqueue st id;
  mark_readers st id

let get_lane t ~lane id =
  let st = t.st in
  Sl.lane { Sl.w = st.widths.(id); v = st.nv.(id); u = st.nu.(id) } lane

(* One defined int per lane, transposed into the net's bit words
   without building a [Bv.t] per lane: the translated model pokes every
   choice net this way once per block of choices.  Bits beyond the int
   read 0, as [Bv.of_int] of a non-negative value. *)
let poke_ints t id (values : int array) =
  let st = t.st in
  let en = st.amask land lnot st.forced.(id) land lnot st.frozen in
  if en <> 0 then begin
    let nv = st.nv.(id) and nu = st.nu.(id) in
    let changed = ref false in
    for j = 0 to st.widths.(id) - 1 do
      let word = ref 0 in
      if j < Sys.int_size - 1 then
        for l = 0 to st.lanes - 1 do
          word := !word lor (((values.(l) lsr j) land 1) lsl l)
        done;
      let v' = (nv.(j) land lnot en) lor (!word land en)
      and u' = nu.(j) land lnot en in
      if v' <> nv.(j) || u' <> nu.(j) then begin
        nv.(j) <- v';
        nu.(j) <- u';
        changed := true
      end
    done;
    if !changed then mark_readers st id
  end

(* The inverse transposition; a lane with an undefined bit, or any lane
   of a net wider than the packed limit, cannot encode an int, as in
   [check_net]. *)
let get_ints t id (dst : int array) =
  let st = t.st in
  let w = st.widths.(id) in
  if w > Bv.packed_width_limit then st.amask
  else begin
    let nv = st.nv.(id) and nu = st.nu.(id) in
    Array.fill dst 0 st.lanes 0;
    let bad = ref 0 in
    for j = 0 to w - 1 do
      bad := !bad lor nu.(j);
      let v = nv.(j) in
      if v <> 0 then
        for l = 0 to st.lanes - 1 do
          if (v lsr l) land 1 = 1 then dst.(l) <- dst.(l) lor (1 lsl j)
        done
    done;
    !bad land st.amask
  end

(* Per-lane divergence against a predicted value: the first mask has
   the lanes whose value cannot encode an int (an undefined bit, or a
   net wider than the packed limit — [Bv.to_int]'s wide behaviour);
   the second the defined lanes whose value differs. *)
let check_net ?mask t id ~predicted =
  let st = t.st in
  let mask = Option.value ~default:st.amask mask land st.amask in
  let w = st.widths.(id) in
  if w > Bv.packed_width_limit then (mask, 0)
  else begin
    let nv = st.nv.(id) and nu = st.nu.(id) in
    let bad = ref 0 and neq = ref 0 in
    for j = 0 to w - 1 do
      bad := !bad lor nu.(j);
      let p = if (predicted lsr j) land 1 = 1 then lmask else 0 in
      neq := !neq lor (nv.(j) lxor p)
    done;
    let bad = !bad land mask in
    (bad, !neq land mask land lnot bad)
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

(* The masked form returns some lanes to power-on between two steps
   while the others keep running: their words go back to X (regs) or Z
   (wires), they lose their forces and freeze bits, and every unit runs
   at the next settle, as after a full reinit — for the lanes that kept
   running that re-run is the fixpoint they already hold.  The full
   form also empties the worklist, the overlay and the NBA queue, so it
   recovers a kernel whose step raised. *)
let reinit ?mask t =
  let st = t.st in
  let m = match mask with None -> lmask | Some m -> m land st.amask in
  Array.iteri
    (fun id net ->
      let v = match net.Elab.kind with Ast.Reg -> m | Ast.Wire -> 0 in
      let nv = st.nv.(id) and nu = st.nu.(id) in
      for j = 0 to st.widths.(id) - 1 do
        nv.(j) <- (nv.(j) land lnot m) lor v;
        nu.(j) <- nu.(j) lor m
      done;
      st.forced.(id) <- st.forced.(id) land lnot m)
    st.d.Elab.nets;
  st.frozen <- st.frozen land lnot m;
  st.dirty_all <- true;
  if mask = None then begin
    Bytes.fill st.ov_set 0 (Bytes.length st.ov_set) '\000';
    st.n_touched <- 0;
    st.nba <- [];
    st.qh <- 0;
    st.qt <- 0;
    Bytes.fill st.in_queue 0 (Bytes.length st.in_queue) '\000';
    st.time <- 0;
    st.last_changed <- -1
  end

(* Retire lanes from the kernel: every write path masks out frozen
   lanes, so a frozen lane's nets stop changing and its downstream
   units drop out of the dirty set — a word pass whose dead lanes are
   frozen costs only the union of the LIVE lanes' activity.  Frozen
   lanes keep their last values (stale, never read back by the
   campaign) until {!reinit} clears the mask. *)
let freeze t ~mask =
  let st = t.st in
  st.frozen <- st.frozen lor (mask land st.amask)

let frozen t = t.st.frozen

let rerun_unit t u = enqueue t.st u

let build ?u ~lanes (d : Elab.t) (procs : xp array) =
  let u = match u with Some u -> u | None -> Compile.units d in
  let n = Array.length d.Elab.nets in
  let widths = Array.map (fun (net : Elab.enet) -> net.Elab.width) d.Elab.nets in
  let st =
    {
      d;
      u;
      lanes;
      amask = (1 lsl lanes) - 1;
      widths;
      nv = Array.init n (fun i -> Array.make widths.(i) 0);
      nu = Array.init n (fun i -> Array.make widths.(i) 0);
      forced = Array.make n 0;
      ov_v = Array.init n (fun i -> Array.make widths.(i) 0);
      ov_u = Array.init n (fun i -> Array.make widths.(i) 0);
      ov_set = Bytes.make n '\000';
      touched = Array.make (max n 1) 0;
      n_touched = 0;
      nba = [];
      queue = Array.make (u.Compile.unit_count + 1) 0;
      qh = 0;
      qt = 0;
      in_queue = Bytes.make (max u.Compile.unit_count 1) '\000';
      dirty_all = true;
      frozen = 0;
      time = 0;
      last_changed = -1;
    }
  in
  (* Driver lists per net, in the same order [Compile.units] builds
     them, but over the schemata IR. *)
  let drivers = Array.make n [] in
  Array.iter
    (fun p ->
      match p with
      | XAssign (lv, e) ->
        List.iter
          (fun id -> drivers.(id) <- (lv, e) :: drivers.(id))
          (Elab.lv_nets lv)
      | XComb _ | XSeq _ -> ())
    procs;
  Array.iteri (fun i l -> drivers.(i) <- List.rev l) drivers;
  let combs =
    Array.of_list
      (Array.to_list procs
      |> List.filter_map (function XComb s -> Some s | _ -> None))
  in
  let seqs =
    Array.to_list procs
    |> List.filter_map (function XSeq (e, s) -> Some (e, s) | _ -> None)
    |> Array.of_list
  in
  (* Sanity: the IR mirrors the base analysis unit-for-unit. *)
  assert (Array.length combs = Array.length u.Compile.comb);
  assert (Array.length seqs = Array.length u.Compile.seq);
  Array.iter (fun dl -> List.iter (fun (_, e) -> check_e d e) dl) drivers;
  Array.iter (check_s d) combs;
  Array.iter (fun (_, s) -> check_s d s) seqs;
  let units_fn =
    Array.init u.Compile.unit_count (fun uid ->
        if uid < n then
          match drivers.(uid) with
          | [] -> fun () -> ()
          | dl -> cdriver st uid dl
        else
          let body = cstmt st ~seq:false combs.(uid - n) in
          fun () -> body (st.amask land lnot st.frozen))
  in
  let seq_fn =
    Array.map
      (fun (edges, s) ->
        let body = cstmt st ~seq:true s in
        (edges, fun () -> body (st.amask land lnot st.frozen)))
      seqs
  in
  let t = { st; units_fn; seq_fn } in
  reinit t;
  t

let create ?u ~lanes (d : Elab.t) =
  if lanes < 1 || lanes > Sl.lanes_limit then
    invalid_arg "Sliced.create: lane count out of range";
  let procs = Array.map inj_p d.Elab.processes in
  match build ?u ~lanes d procs with
  | t -> Some t
  | exception Unsupported -> None

let create_schemata ?u ~base (mutants : Elab.t array) =
  let lanes = Array.length mutants in
  if lanes < 1 || lanes > Sl.lanes_limit then
    invalid_arg "Sliced.create_schemata: lane count out of range";
  let procs = Array.map inj_p base.Elab.processes in
  (* Lanes that carry the same elaboration (a chunk of mutants repeated
     across slots) share one merge under the union of their masks. *)
  let scheduled = Array.make lanes false in
  Array.iteri
    (fun i md ->
      let rec first i' = i' = i || (mutants.(i') != md && first (i' + 1)) in
      if first 0 then begin
        let mask = ref 0 in
        Array.iteri
          (fun i' md' -> if md' == md then mask := !mask lor (1 lsl i'))
          mutants;
        let ok = merge_mutant ~mask:!mask procs base md in
        Array.iteri
          (fun i' md' -> if md' == md then scheduled.(i') <- ok)
          mutants
      end)
    mutants;
  match build ?u ~lanes base procs with
  | t -> Some (t, scheduled)
  | exception Unsupported -> None
