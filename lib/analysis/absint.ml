(* Abstract interpretation over elaborated designs.

   One product domain per net: a known-bits plane pair (which bits of
   the packed value/unknown planes are proven) plus an integer
   value-plane interval.  A fixpoint over the sequential step function
   — comb settling ordered by the Dataflow SCC condensation, then
   edge-triggered fire/commit — yields two invariant environments:

   - [all]: holds at EVERY program point of every execution whose
     stimulus pokes or forces only unconstrained nets: power-on
     values, mid-settle transients and seq-blocking overlays included.

   - [run]: holds at every settled observation point of the
     translate/replay protocol (reset held for [reset_cycles] posedge
     steps, then pinned 0; only the clock is ever stepped).  Sharper —
     reset constants survive — and exactly what the state enumerator
     and the mutant divergence check observe.

   Soundness before precision: every transfer function may return top;
   exact evaluation defers to [Compile.unop_val]/[binop_val], the same
   code the reference interpreter executes. *)

open Avp_logic
open Avp_hdl

let limit = Bv.packed_width_limit

(* ------------------------------------------------------------------ *)
(* Abstract values                                                    *)
(* ------------------------------------------------------------------ *)

type av = {
  w : int;
  kv : int;  (** mask of value-plane bits with a proven value *)
  v : int;  (** their values; [v land kv = v] *)
  ku : int;  (** mask of unknown-plane bits with a proven value *)
  u : int;  (** their values; [u land ku = u] *)
  lo : int;  (** value-plane integer bounds (meaningless when wide) *)
  hi : int;
}

let bits w = if w >= limit then limit else w
let mask w = (1 lsl bits w) - 1
let wide a = a.w > limit

let top w =
  { w; kv = 0; v = 0; ku = 0; u = 0; lo = 0; hi = mask w }

(* Highest set bit of a positive int, as a power of two. *)
let hsb x =
  let r = ref x in
  let p = ref 0 in
  while !r > 1 do
    incr p;
    r := !r lsr 1
  done;
  1 lsl !p

(* Canonical form: interval and known bits tighten each other.  The
   interval bounds the value plane as an unsigned integer, so the
   common prefix of [lo] and [hi] is a set of proven bits and proven
   bits shrink the interval. *)
let norm a =
  if wide a then a
  else begin
    let m = mask a.w in
    let lo = max a.lo a.v in
    let hi = min a.hi (a.v lor (m land lnot a.kv)) in
    let lo, hi = if lo > hi then (a.v, a.v lor (m land lnot a.kv)) else (lo, hi) in
    if lo = hi then { a with kv = m; v = lo; lo; hi }
    else begin
      let pref = m land lnot ((hsb (lo lxor hi) lsl 1) - 1) in
      let kv = a.kv lor pref in
      let v = a.v lor (lo land pref land lnot a.kv) in
      { a with kv; v; lo; hi }
    end
  end

let of_bv bv =
  let w = Bv.width bv in
  match Bv.planes bv with
  | Some (pv, pu) when w <= limit ->
    norm { w; kv = mask w; v = pv; ku = mask w; u = pu; lo = pv; hi = pv }
  | _ -> top w

let to_bv a =
  if (not (wide a)) && a.kv = mask a.w && a.ku = mask a.w then
    Some (Bv.of_planes ~width:a.w a.v a.u)
  else None

let is_const a = to_bv a <> None
let defined a = (not (wide a)) && a.ku = mask a.w && a.u = 0

(* Drop the interval to what the known bits alone imply — the sound
   fallback whenever bits from several sources can mix. *)
let blur a =
  if wide a then a
  else norm { a with lo = a.v; hi = a.v lor (mask a.w land lnot a.kv) }

let join a b =
  if wide a || a.w <> b.w then top a.w
  else begin
    let kv = a.kv land b.kv land lnot (a.v lxor b.v) in
    let ku = a.ku land b.ku land lnot (a.u lxor b.u) in
    norm
      { w = a.w; kv; v = a.v land kv; ku; u = a.u land ku;
        lo = min a.lo b.lo; hi = max a.hi b.hi }
  end

let equal_av (a : av) (b : av) = a = b

(* Interval widening against the previous iterate: any bound still in
   motion jumps to its extreme, bounding the chain length (known bits
   only ever disappear, so they need no widening). *)
let widen ~prev cur =
  if wide cur then cur
  else
    let lo = if cur.lo < prev.lo then 0 else cur.lo in
    let hi = if cur.hi > prev.hi then mask cur.w else cur.hi in
    if lo = cur.lo && hi = cur.hi then cur else { cur with lo; hi }

(* Truth of a condition, mirroring both engines: a vector is true iff
   some bit is a definite 1 ([Bv.to_bool]), false iff every bit is a
   definite 0. *)
let truth a =
  if wide a then `U
  else begin
    let m = mask a.w in
    if a.kv land a.v land a.ku land lnot a.u <> 0 then `T
    else if a.kv = m && a.v = 0 && a.ku = m && a.u = 0 then `F
    else `U
  end

let resize a w' =
  if w' = a.w then a
  else if w' > limit || wide a then top w'
  else begin
    let m' = mask w' in
    if w' < a.w then
      let lo, hi = if a.hi <= m' then (a.lo, a.hi) else (0, m') in
      norm
        { w = w'; kv = a.kv land m'; v = a.v land m'; ku = a.ku land m';
          u = a.u land m'; lo; hi }
    else
      (* Zero-extension: the new high bits are proven (0,0). *)
      let ext = m' land lnot (mask a.w) in
      norm
        { w = w'; kv = a.kv lor ext; v = a.v; ku = a.ku lor ext; u = a.u;
          lo = a.lo; hi = a.hi }
  end

let select a ~hi ~lo =
  let w' = hi - lo + 1 in
  if wide a || w' > limit then top w'
  else begin
    let m' = mask w' in
    norm
      { w = w'; kv = (a.kv lsr lo) land m'; v = (a.v lsr lo) land m';
        ku = (a.ku lsr lo) land m'; u = (a.u lsr lo) land m';
        lo = 0; hi = m' }
  end

(* [a] is the MSB part. *)
let concat_av a b =
  let w' = a.w + b.w in
  if w' > limit || wide a || wide b then top w'
  else
    norm
      { w = w';
        kv = (a.kv lsl b.w) lor b.kv; v = (a.v lsl b.w) lor b.v;
        ku = (a.ku lsl b.w) lor b.ku; u = (a.u lsl b.w) lor b.u;
        lo = (a.lo lsl b.w) lor b.lo; hi = (a.hi lsl b.w) lor b.hi }

(* Replace bits [at .. at + piece.w - 1]. *)
let insert base piece ~at =
  if wide base then top base.w
  else if at + piece.w > bits base.w then top base.w
  else begin
    let pm = mask piece.w lsl at in
    let keep = lnot pm in
    norm
      { w = base.w;
        kv = (base.kv land keep) lor ((piece.kv lsl at) land pm);
        v = (base.v land keep) lor ((piece.v lsl at) land pm);
        ku = (base.ku land keep) lor ((piece.ku lsl at) land pm);
        u = (base.u land keep) lor ((piece.u lsl at) land pm);
        lo = 0; hi = mask base.w }
  end

(* Every bit independently keeps its value or becomes [bit]'s — the
   abstraction of a write through an unknown index. *)
let weaken base bit =
  if wide base then top base.w
  else begin
    let m = mask base.w in
    let rep x = if x land 1 = 1 then m else 0 in
    let r =
      { w = base.w; kv = rep bit.kv; v = rep bit.v; ku = rep bit.ku;
        u = rep bit.u; lo = 0; hi = m }
    in
    blur (join base r)
  end

let all_z_av w = of_bv (Bv.all_z (min w (limit + 1)))
let av_x1 = of_bv (Bv.of_string "x")

(* Per-bit masks used by several transfers. *)
let def0 a = a.kv land lnot a.v land a.ku land lnot a.u
let def1 a = a.kv land a.v land a.ku land lnot a.u
let known_z a = a.kv land lnot a.v land a.ku land a.u
let known_not_z a = a.kv land a.ku land lnot (lnot a.v land a.u)
let pair_known a = a.kv land a.ku

(* Verilog net resolution of two contributions of equal width. *)
let resolve a b =
  if wide a then top a.w
  else begin
    let take_a = known_z b in
    let take_b = known_not_z b land known_z a in
    let both = known_not_z a land known_not_z b in
    let same = both land lnot ((a.v lxor b.v) lor (a.u lxor b.u)) in
    let clash = both land lnot same in
    let kv = (a.kv land take_a) lor (b.kv land take_b) lor same lor clash in
    let v = (a.v land take_a) lor (b.v land take_b) lor (a.v land same) lor clash in
    let ku = (a.ku land take_a) lor (b.ku land take_b) lor same lor clash in
    let u = (a.u land take_a) lor (b.u land take_b) lor (a.u land same) lor clash in
    norm { w = a.w; kv; v = v land kv; ku; u = u land ku; lo = 0; hi = mask a.w }
  end

let defined_unknown w =
  if w > limit then top w
  else norm { w; kv = 0; v = 0; ku = mask w; u = 0; lo = 0; hi = mask w }

let const_bit b = of_bv (Bv.of_int ~width:1 b)

(* ------------------------------------------------------------------ *)
(* Expression transfer                                                *)
(* ------------------------------------------------------------------ *)

let binop_width op wx wy =
  match op with
  | Ast.Eq | Ast.Neq | Ast.Ceq | Ast.Cneq | Ast.Lt | Ast.Le | Ast.Gt
  | Ast.Ge | Ast.Land | Ast.Lor -> 1
  | Ast.Shl | Ast.Shr -> wx
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Band | Ast.Bor | Ast.Bxor ->
    max wx wy

let abs_unop op x =
  let wx = x.w in
  match to_bv x with
  | Some bv -> of_bv (Compile.unop_val op bv)
  | None ->
    (match op with
     | Ast.Bnot ->
       if wide x then top wx
       else begin
         let kv = x.kv land x.ku in
         let v = ((lnot x.v land lnot x.u) lor x.u) land kv in
         blur { w = wx; kv; v; ku = x.ku; u = x.u; lo = 0; hi = mask wx }
       end
     | Ast.Neg -> if defined x then defined_unknown wx else top wx
     | Ast.Not ->
       (match truth x with
        | `T -> const_bit 0
        | `F -> const_bit 1
        | `U -> if defined x then defined_unknown 1 else top 1)
     | Ast.Uor ->
       (match truth x with
        | `T -> const_bit 1
        | `F -> const_bit 0
        | `U -> if defined x then defined_unknown 1 else top 1)
     | Ast.Uand ->
       if (not (wide x)) && def1 x = mask x.w then const_bit 1
       else if def0 x <> 0 then const_bit 0
       else if defined x then defined_unknown 1
       else top 1
     | Ast.Uxor -> if defined x then defined_unknown 1 else top 1)

let abs_binop op x y =
  let wr = binop_width op x.w y.w in
  match (to_bv x, to_bv y) with
  | Some bx, Some by -> of_bv (Compile.binop_val op bx by)
  | _ ->
    if wr > limit then top wr
    else begin
      let m = mask wr in
      (* Definite per-bit mismatch on a plane both sides know. *)
      let both_pairs a b = pair_known (resize a wr) land pair_known (resize b wr) in
      let case_mismatch =
        let a = resize x wr and b = resize y wr in
        let k = both_pairs x y in
        k land ((a.v lxor b.v) lor (a.u lxor b.u)) <> 0
      in
      let defined_mismatch =
        let a = resize x wr and b = resize y wr in
        let k = def0 a lor def1 a in
        let k' = def0 b lor def1 b in
        k land k' land (a.v lxor b.v) <> 0
      in
      match op with
      | Ast.Band ->
        let a = resize x wr and b = resize y wr in
        let z = def0 a lor def0 b in
        let one = def1 a land def1 b in
        blur { w = wr; kv = z lor one; v = one; ku = z lor one; u = 0;
               lo = 0; hi = m }
      | Ast.Bor ->
        let a = resize x wr and b = resize y wr in
        let one = def1 a lor def1 b in
        let z = def0 a land def0 b in
        blur { w = wr; kv = z lor one; v = one; ku = z lor one; u = 0;
               lo = 0; hi = m }
      | Ast.Bxor ->
        let a = resize x wr and b = resize y wr in
        let k = (def0 a lor def1 a) land (def0 b lor def1 b) in
        blur { w = wr; kv = k; v = (a.v lxor b.v) land k; ku = k; u = 0;
               lo = 0; hi = m }
      | Ast.Add ->
        if defined x && defined y then begin
          let lo = x.lo + y.lo and hi = x.hi + y.hi in
          let lo, hi = if hi <= m && hi >= 0 then (lo, hi) else (0, m) in
          norm { (defined_unknown wr) with lo; hi }
        end
        else top wr
      | Ast.Sub ->
        if defined x && defined y then begin
          if x.lo >= y.hi then
            norm { (defined_unknown wr) with lo = x.lo - y.hi; hi = x.hi - y.lo }
          else defined_unknown wr
        end
        else top wr
      | Ast.Mul ->
        if defined x && defined y then begin
          if y.hi = 0 || x.hi <= m / y.hi then
            norm { (defined_unknown wr) with lo = x.lo * y.lo; hi = x.hi * y.hi }
          else defined_unknown wr
        end
        else top wr
      | Ast.Eq ->
        if defined x && defined y then begin
          if defined_mismatch || x.hi < y.lo || y.hi < x.lo then const_bit 0
          else defined_unknown 1
        end
        else top 1
      | Ast.Neq ->
        if defined x && defined y then begin
          if defined_mismatch || x.hi < y.lo || y.hi < x.lo then const_bit 1
          else defined_unknown 1
        end
        else top 1
      | Ast.Ceq -> if case_mismatch then const_bit 0 else defined_unknown 1
      | Ast.Cneq -> if case_mismatch then const_bit 1 else defined_unknown 1
      | Ast.Lt ->
        if defined x && defined y then begin
          if x.hi < y.lo then const_bit 1
          else if x.lo >= y.hi then const_bit 0
          else defined_unknown 1
        end
        else top 1
      | Ast.Le ->
        if defined x && defined y then begin
          if x.hi <= y.lo then const_bit 1
          else if x.lo > y.hi then const_bit 0
          else defined_unknown 1
        end
        else top 1
      | Ast.Gt ->
        if defined x && defined y then begin
          if x.lo > y.hi then const_bit 1
          else if x.hi <= y.lo then const_bit 0
          else defined_unknown 1
        end
        else top 1
      | Ast.Ge ->
        if defined x && defined y then begin
          if x.lo >= y.hi then const_bit 1
          else if x.hi < y.lo then const_bit 0
          else defined_unknown 1
        end
        else top 1
      | Ast.Land ->
        (match (truth x, truth y) with
         | `T, `T -> const_bit 1
         | (`T | `F), (`T | `F) -> const_bit 0
         | _ -> top 1)
      | Ast.Lor ->
        (match (truth x, truth y) with
         | `F, `F -> const_bit 0
         | (`T | `F), (`T | `F) -> const_bit 1
         | _ -> top 1)
      | Ast.Shl ->
        (match to_bv y with
         | Some by when Bv.is_defined by ->
           (match Bv.to_int by with
            | Some k when k < bits wr ->
              let low = (1 lsl k) - 1 in
              blur
                { w = wr; kv = ((x.kv lsl k) lor low) land m;
                  v = (x.v lsl k) land m;
                  ku = ((x.ku lsl k) lor low) land m;
                  u = (x.u lsl k) land m; lo = 0; hi = m }
            | Some _ -> of_bv (Bv.of_int ~width:wr 0)
            | None -> top wr)
         | _ ->
           if defined x && defined y then defined_unknown wr else top wr)
      | Ast.Shr ->
        (match to_bv y with
         | Some by when Bv.is_defined by ->
           (match Bv.to_int by with
            | Some k when k < bits wr ->
              let highk = m land lnot (mask (wr - k)) in
              blur
                { w = wr; kv = (x.kv lsr k) lor highk; v = x.v lsr k;
                  ku = (x.ku lsr k) lor highk; u = x.u lsr k;
                  lo = 0; hi = m }
            | Some _ -> of_bv (Bv.of_int ~width:wr 0)
            | None -> top wr)
         | _ ->
           if defined x && defined y then
             norm { (defined_unknown wr) with lo = 0; hi = x.hi }
           else top wr)
    end

let rec eval (rd : int -> av) (d : Elab.t) (e : Elab.eexpr) : av =
  match e with
  | Elab.Const c -> of_bv c
  | Elab.Net id -> rd id
  | Elab.Range (id, hi, lo) -> select (rd id) ~hi ~lo
  | Elab.Index (id, ix) ->
    let a = rd id in
    let wn = d.Elab.nets.(id).Elab.width in
    let ai = eval rd d ix in
    (match to_bv ai with
     | Some bvi ->
       (match Bv.to_int bvi with
        | Some i when i < wn -> select a ~hi:i ~lo:i
        | _ -> av_x1)
     | None ->
       if wide a then top 1
       else begin
         (* Some bit of the net, or X if the index can go astray. *)
         let acc = ref (select a ~hi:0 ~lo:0) in
         for i = 1 to bits wn - 1 do
           acc := join !acc (select a ~hi:i ~lo:i)
         done;
         let in_range = defined ai && ai.hi < wn in
         if in_range then !acc else join !acc av_x1
       end)
  | Elab.Unop (op, x) -> abs_unop op (eval rd d x)
  | Elab.Binop (op, x, y) -> abs_binop op (eval rd d x) (eval rd d y)
  | Elab.Ternary (c, x, y) ->
    let ac = eval rd d c in
    (match truth ac with
     | `T -> eval rd d x
     | `F -> eval rd d y
     | `U ->
       let ax = eval rd d x and ay = eval rd d y in
       let w = max ax.w ay.w in
       let ax = resize ax w and ay = resize ay w in
       if defined ac then join ax ay
       else if w > limit then top w
       else begin
         (* The selector can be X, which muxes per-bit: only bits both
            arms agree on survive; anything else may go X. *)
         let g =
           ax.kv land ay.kv land lnot (ax.v lxor ay.v) land ax.ku
           land ay.ku land lnot (ax.u lxor ay.u)
         in
         let j = join ax ay in
         blur
           { j with kv = j.kv land g; v = j.v land g; ku = j.ku land g;
                    u = j.u land g }
       end)
  | Elab.Concat es ->
    (match es with
     | [] -> top 1
     | first :: rest ->
       List.fold_left
         (fun acc e -> concat_av acc (eval rd d e))
         (eval rd d first) rest)
  | Elab.Repeat (n, x) ->
    let ax = eval rd d x in
    let acc = ref ax in
    for _ = 2 to n do
      acc := concat_av !acc ax
    done;
    !acc

(* ------------------------------------------------------------------ *)
(* Statement transfer                                                 *)
(* ------------------------------------------------------------------ *)

(* Writers receive full-width per-net values: partial lvalues are
   folded with the net's current abstraction before the write. *)
type writer = blocking:bool -> definite:bool -> int -> av -> unit

let lv_width (d : Elab.t) lv =
  let rec go = function
    | Elab.Lnet id -> d.Elab.nets.(id).Elab.width
    | Elab.Lindex _ -> 1
    | Elab.Lrange (_, hi, lo) -> hi - lo + 1
    | Elab.Lconcat ls -> List.fold_left (fun a l -> a + go l) 0 ls
  in
  go lv

let scatter rd (wr : writer) ~blocking ~definite (d : Elab.t) lv av =
  let total = lv_width d lv in
  let a = resize av total in
  (* LSB-first across concat pieces, mirroring [Sim.lv_pieces]. *)
  let rec go off = function
    | Elab.Lnet id ->
      let wn = d.Elab.nets.(id).Elab.width in
      wr ~blocking ~definite id (select a ~hi:(off + wn - 1) ~lo:off);
      off + wn
    | Elab.Lrange (id, hi, lo) ->
      let wn = hi - lo + 1 in
      let piece = select a ~hi:(off + wn - 1) ~lo:off in
      wr ~blocking ~definite id (insert (rd id) piece ~at:lo);
      off + wn
    | Elab.Lindex (id, ix) ->
      let piece = select a ~hi:off ~lo:off in
      let wn = d.Elab.nets.(id).Elab.width in
      let ai = eval rd d ix in
      (match to_bv ai with
       | Some bvi ->
         (match Bv.to_int bvi with
          | Some i when i < wn ->
            wr ~blocking ~definite id (insert (rd id) piece ~at:i)
          | _ -> () (* an out-of-range index write is discarded *))
       | None -> wr ~blocking ~definite id (weaken (rd id) piece));
      off + 1
    | Elab.Lconcat ls -> List.fold_left go off (List.rev ls)
  in
  ignore (go 0 lv)

(* Does the label provably (mis)match the selector under case
   equality?  Bits whose plane pair both sides know decide it. *)
let label_status sel lbl =
  let lbl = resize lbl sel.w in
  if wide sel then `Unknown
  else begin
    let k = pair_known sel land pair_known lbl in
    if k land ((sel.v lxor lbl.v) lor (sel.u lxor lbl.u)) <> 0 then `Miss
    else if k = mask sel.w then `Hit
    else `Unknown
  end

let rec exec rd (wr : writer) ~def (d : Elab.t) (s : Elab.estmt) =
  match s with
  | Elab.Nop -> ()
  | Elab.Block ss -> List.iter (exec rd wr ~def d) ss
  | Elab.Blocking (lv, e) ->
    scatter rd wr ~blocking:true ~definite:def d lv (eval rd d e)
  | Elab.Nonblocking (lv, e) ->
    scatter rd wr ~blocking:false ~definite:def d lv (eval rd d e)
  | Elab.If (c, t, e) ->
    (match truth (eval rd d c) with
     | `T -> exec rd wr ~def d t
     | `F -> (match e with Some e -> exec rd wr ~def d e | None -> ())
     | `U ->
       exec rd wr ~def:false d t;
       (match e with Some e -> exec rd wr ~def:false d e | None -> ()))
  | Elab.Case (sel, items, dflt) ->
    let asel = eval rd d sel in
    let rec arms ~def items =
      match items with
      | [] -> (match dflt with Some b -> exec rd wr ~def d b | None -> ())
      | (labels, body) :: rest ->
        let sts = List.map (fun l -> label_status asel (eval rd d l)) labels in
        if List.for_all (fun s -> s = `Miss) sts then arms ~def rest
        else if def && List.exists (fun s -> s = `Hit) sts then
          exec rd wr ~def d body
        else begin
          (* This arm may or may not be taken; later arms too. *)
          exec rd wr ~def:false d body;
          if List.exists (fun s -> s = `Hit) sts then ()
          else arms ~def:false rest
        end
    in
    arms ~def items

(* ------------------------------------------------------------------ *)
(* Engine: settle and step                                            *)
(* ------------------------------------------------------------------ *)

type ctx = {
  d : Elab.t;
  u : Compile.units;
  tops : bool array;  (** unconstrained nets: inputs, frees, ties, clock, reset *)
  cyclic : bool array;  (** net sits on a comb cycle: never overwrite *)
  order : int array;  (** unit ids, comb-dependency order from the SCCs *)
  pins : Bv.t option array;  (** protocol pins (reset during the phases) *)
}

let nets_count (d : Elab.t) = Array.length d.Elab.nets
let net_width (d : Elab.t) id = d.Elab.nets.(id).Elab.width

let make_reader ctx env id =
  match ctx.pins.(id) with
  | Some bv -> of_bv bv
  | None -> if ctx.tops.(id) then top (net_width ctx.d id) else env.(id)

(* [frontier]: overwrite acyclic nets with freshly evaluated values
   (the next settled state); otherwise accumulate by join (the [all]
   analysis, where transients are program points too). *)
let settle ctx env ~frontier =
  let n = nets_count ctx.d in
  let uc = ctx.u.Compile.unit_count in
  let inq = Array.make uc false in
  let q = Queue.create () in
  let enqueue t =
    if not inq.(t) then begin
      inq.(t) <- true;
      Queue.add t q
    end
  in
  Array.iter enqueue ctx.order;
  let budget = ref ((16 * uc) + 64) in
  let touch id =
    Array.iter enqueue ctx.u.Compile.readers.(id)
  in
  let rd = make_reader ctx env in
  let changed = ref false in
  let store id a =
    let a = norm (resize a (net_width ctx.d id)) in
    if not (equal_av env.(id) a) then begin
      env.(id) <- a;
      changed := true;
      touch id
    end
  in
  let write_join id a = store id (join env.(id) (resize a (net_width ctx.d id))) in
  let write ~over id a =
    if ctx.tops.(id) || ctx.pins.(id) <> None then ()
    else if frontier && over && not ctx.cyclic.(id) then store id a
    else write_join id a
  in
  let comb_writer ~blocking:_ ~definite id a = write ~over:definite id a in
  let run_unit t =
    if t < n then begin
      (* Net resolution unit. *)
      if ctx.u.Compile.drivers.(t) <> [] && not ctx.tops.(t)
         && ctx.pins.(t) = None
      then begin
        let wn = net_width ctx.d t in
        let contrib (lv, e) =
          let a = resize (eval rd ctx.d e) (lv_width ctx.d lv) in
          let acc = ref (all_z_av wn) in
          let rec go off = function
            | Elab.Lnet id ->
              let w = net_width ctx.d id in
              if id = t then acc := select a ~hi:(off + w - 1) ~lo:off;
              off + w
            | Elab.Lrange (id, hi, lo) ->
              let w = hi - lo + 1 in
              if id = t then
                acc := insert !acc (select a ~hi:(off + w - 1) ~lo:off) ~at:lo;
              off + w
            | Elab.Lindex (id, ix) ->
              if id = t then begin
                let piece = select a ~hi:off ~lo:off in
                match to_bv (eval rd ctx.d ix) with
                | Some bvi ->
                  (match Bv.to_int bvi with
                   | Some i when i < wn -> acc := insert !acc piece ~at:i
                   | _ -> ())
                | None -> acc := weaken !acc piece
              end;
              off + 1
            | Elab.Lconcat ls -> List.fold_left go off (List.rev ls)
          in
          ignore (go 0 lv);
          !acc
        in
        match ctx.u.Compile.drivers.(t) with
        | [] -> ()
        | [ one ] -> write ~over:true t (contrib one)
        | many ->
          let a =
            List.fold_left
              (fun acc dr -> resolve acc (contrib dr))
              (all_z_av wn) many
          in
          write ~over:true t a
      end
    end
    else exec rd comb_writer ~def:true ctx.d ctx.u.Compile.comb.(t - n)
  in
  while not (Queue.is_empty q) do
    let t = Queue.pop q in
    inq.(t) <- false;
    decr budget;
    if !budget < 0 then begin
      (* Give up: top out whatever the stuck units write. *)
      let ids =
        if t < n then [ t ]
        else Elab.stmt_writes ctx.u.Compile.comb.(t - n)
      in
      List.iter
        (fun id ->
          if not (ctx.tops.(id) || ctx.pins.(id) <> None) then begin
            let tp = top (net_width ctx.d id) in
            if not (equal_av env.(id) tp) then begin
              env.(id) <- tp;
              changed := true
            end
          end)
        ids
    end
    else run_unit t
  done;
  !changed

(* Fire edge-triggered processes and commit their nonblocking writes.
   [procs] lists (process index, fires definitely); [overwrite]
   enables the phase-A semantics where a definite commit replaces the
   register's previous abstraction.  [record_blocking] folds seq
   blocking overlays into the environment — the [all] analysis must,
   since compiled seq bodies read them through [op_loads]. *)
let fire_seq ctx env ~procs ~overwrite ~record_blocking =
  let nba : (int, av * bool) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (pi, d0) ->
      match ctx.d.Elab.processes.(pi) with
      | Elab.Seq (_, body) ->
        let overlay : (int, av) Hashtbl.t = Hashtbl.create 8 in
        let rd id =
          match Hashtbl.find_opt overlay id with
          | Some a -> a
          | None -> make_reader ctx env id
        in
        let wr ~blocking ~definite id a =
          if ctx.tops.(id) || ctx.pins.(id) <> None then ()
          else begin
            let a = norm (resize a (net_width ctx.d id)) in
            if blocking then begin
              let nv = if definite then a else join (rd id) a in
              Hashtbl.replace overlay id nv;
              if record_blocking then env.(id) <- join env.(id) nv
            end
            else begin
              let definite = definite && d0 in
              match Hashtbl.find_opt nba id with
              | None -> Hashtbl.replace nba id (a, definite)
              | Some (prev, dp) ->
                Hashtbl.replace nba id (blur (join prev a), dp || definite)
            end
          end
        in
        exec rd wr ~def:true ctx.d body
      | Elab.Assign _ | Elab.Comb _ -> ())
    procs;
  let changed = ref false in
  Hashtbl.iter
    (fun id (a, definite) ->
      let a = norm (resize a (net_width ctx.d id)) in
      let nv = if overwrite && definite then a else join env.(id) a in
      if not (equal_av env.(id) nv) then begin
        env.(id) <- nv;
        changed := true
      end)
    nba;
  !changed

(* ------------------------------------------------------------------ *)
(* Analyses                                                           *)
(* ------------------------------------------------------------------ *)

type invariants = {
  design : Elab.t;
  all : av array;
  steady : av array;
  run : av array;
  tops : bool array;
  clock : int option;
  reset : int option;
  run_distinct : bool;
      (** the protocol analysis ran (clock and reset were identified);
          when false, [run] is just [all] *)
  latch_free : bool;
      (** no combinational cycles and no incomplete comb assignments:
          every comb net is memoryless, so [steady] is strictly
          tighter than [all] *)
}

(* The subset of [Translate.parse_directives] this pass needs, without
   its hard failures: clock/reset names, frees and ties. *)
let controls (d : Elab.t) =
  let clock = ref None and reset = ref None in
  let frees = Hashtbl.create 8 and ties = Hashtbl.create 8 in
  let words s = String.split_on_char ' ' s |> List.filter (( <> ) "") in
  let handle prefix payload =
    let qualify n = if prefix = "" then n else prefix ^ "." ^ n in
    match words payload with
    | [ "clock"; n ] -> if !clock = None then clock := Some (qualify n)
    | [ "reset"; n ] -> if !reset = None then reset := Some (qualify n)
    | [ "free"; n ] -> Hashtbl.replace frees (qualify n) ()
    | [ "tie"; n; _ ] -> Hashtbl.replace ties (qualify n) ()
    | _ -> ()
  in
  List.iter
    (fun payload ->
      match String.index_opt payload ':' with
      | Some i when i + 1 < String.length payload && payload.[i + 1] = ' ' ->
        handle
          (String.sub payload 0 i)
          (String.sub payload (i + 2) (String.length payload - i - 2))
      | Some _ | None -> handle "" payload)
    d.Elab.directives;
  Array.iter
    (fun (net : Elab.enet) ->
      List.iter
        (fun attr ->
          match words attr with
          | [ "free" ] -> Hashtbl.replace frees net.Elab.name ()
          | [ "tie"; _ ] -> Hashtbl.replace ties net.Elab.name ()
          | _ -> ())
        net.Elab.attrs)
    d.Elab.nets;
  (!clock, !reset, frees, ties)

let power_on (d : Elab.t) tops =
  Array.map
    (fun (net : Elab.enet) ->
      let w = net.Elab.width in
      if tops.(net.Elab.id) || w > limit then top w
      else
        match net.Elab.kind with
        | Ast.Reg -> of_bv (Bv.all_x w)
        | Ast.Wire -> of_bv (Bv.all_z w))
    d.Elab.nets

let seq_proc_indices (d : Elab.t) =
  let acc = ref [] in
  Array.iteri
    (fun i p -> match p with Elab.Seq _ -> acc := i :: !acc | _ -> ())
    d.Elab.processes;
  List.rev !acc

let clocked_by (d : Elab.t) pi clock_id =
  match d.Elab.processes.(pi) with
  | Elab.Seq (edges, _) ->
    List.exists (fun (e, id) -> e = Ast.Posedge && id = clock_id) edges
  | _ -> false

(* Kleene iteration to a fixpoint with periodic interval widening.
   [step] must only grow [env] (all its writes are joins). *)
let fixpoint env (step : unit -> bool) =
  let iter = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iter < 1000 do
    incr iter;
    let prev = if !iter >= 8 then Array.copy env else [||] in
    let changed = step () in
    if !iter >= 8 then
      Array.iteri
        (fun i a ->
          let wa = widen ~prev:prev.(i) a in
          if not (equal_av wa a) then env.(i) <- wa)
        env;
    if not changed then continue_ := false
  done

let analyze ?clock ?reset ?(reset_cycles = 1) (d : Elab.t) =
  let n = nets_count d in
  let u = Compile.units d in
  let dclock, dreset, frees, ties = controls d in
  let clock = match clock with Some _ -> clock | None -> dclock in
  let reset = match reset with Some _ -> reset | None -> dreset in
  let find name = Hashtbl.find_opt d.Elab.by_name name in
  let clock_id = Option.bind clock find in
  let reset_id = Option.bind reset find in
  let tops = Array.make n false in
  Array.iteri (fun i b -> if b then tops.(i) <- true) d.Elab.top_inputs;
  Array.iter
    (fun (net : Elab.enet) ->
      if Hashtbl.mem frees net.Elab.name || Hashtbl.mem ties net.Elab.name
      then tops.(net.Elab.id) <- true)
    d.Elab.nets;
  Option.iter (fun id -> tops.(id) <- true) clock_id;
  Option.iter (fun id -> tops.(id) <- true) reset_id;
  (* Comb-dependency order and cycle membership from the SCCs. *)
  let graph = Dataflow.comb_graph d in
  let sccs = Dataflow.sccs graph in
  let cyclic = Array.make n false in
  List.iter
    (fun comp ->
      match comp with
      | [ x ] -> if Dataflow.has_self_edge graph x then cyclic.(x) <- true
      | xs -> List.iter (fun x -> cyclic.(x) <- true) xs)
    sccs;
  (* Driver units in dependency order (sccs is reverse topological:
     try both net orders; joins make either sound, dependency-first
     just converges in fewer sweeps), then the comb blocks. *)
  let net_order = List.concat (List.rev sccs) in
  let order =
    Array.of_list
      (List.filter (fun id -> u.Compile.drivers.(id) <> []) net_order
      @ List.init (Array.length u.Compile.comb) (fun i -> n + i))
  in
  let mk_pins () = Array.make n None in
  let ctx = { d; u; tops; cyclic; order; pins = mk_pins () } in
  (* --- [all]: every program point, any stimulus ------------------- *)
  let all_env = power_on d tops in
  let all_procs = List.map (fun pi -> (pi, false)) (seq_proc_indices d) in
  fixpoint all_env (fun () ->
      let c1 = settle ctx all_env ~frontier:false in
      let c2 =
        fire_seq ctx all_env ~procs:all_procs ~overwrite:false
          ~record_blocking:true
      in
      c1 || c2);
  (* --- [steady]: every expression-evaluation point ----------------- *)
  (* When every comb net is memoryless (no cyclic SCC, no incomplete
     comb assignment latching state), the settle fixpoint is unique:
     a comb net's settled value is a pure function of register/input
     values, so its power-on Z and mid-settle transients can never be
     captured by anything.  Frontier settling then overwrites acyclic
     comb nets instead of joining their power-on plane in — which is
     what lets a tied-off cone be proven constant.  Registers still
     join their power-on X and every write, and blocking overlays are
     still recorded, so [steady] covers every value an expression can
     actually read.  Monotone despite the overwrites: comb inputs
     (registers, tops, upstream comb nets) only grow, and the
     abstract transfer functions are monotone. *)
  let latch_free =
    (not (Array.exists (fun c -> c) cyclic))
    && Array.for_all
         (fun p ->
           match p with
           | Elab.Comb body ->
             let complete = Avp_fsm.Latch.must_assign_set body in
             List.for_all
               (fun id -> Avp_fsm.Latch.Ids.mem id complete)
               (Elab.stmt_writes body)
           | Elab.Assign _ | Elab.Seq _ -> true)
         d.Elab.processes
  in
  let steady_env =
    if not latch_free then Array.copy all_env
    else begin
      let env = power_on d tops in
      ignore (settle ctx env ~frontier:true);
      fixpoint env (fun () ->
          let c1 =
            fire_seq ctx env ~procs:all_procs ~overwrite:false
              ~record_blocking:true
          in
          let c2 = settle ctx env ~frontier:true in
          c1 || c2);
      env
    end
  in
  (* --- [run]: the translate/replay protocol ----------------------- *)
  let run_distinct = clock_id <> None && reset_id <> None in
  let run_env =
    if not run_distinct then Array.copy all_env
    else begin
      let clock_id = Option.get clock_id and reset_id = Option.get reset_id in
      let pins = mk_pins () in
      let ctx = { ctx with pins } in
      let clocked =
        List.filter (fun pi -> clocked_by d pi clock_id) (seq_proc_indices d)
      in
      let fire_def = List.map (fun pi -> (pi, true)) clocked in
      let env = power_on d tops in
      (* Phase A: reset held high for [reset_cycles] posedge steps. *)
      pins.(reset_id) <- Some (Bv.of_int ~width:1 1);
      ignore (settle ctx env ~frontier:true);
      for _ = 1 to reset_cycles do
        ignore
          (fire_seq ctx env ~procs:fire_def ~overwrite:true
             ~record_blocking:false);
        ignore (settle ctx env ~frontier:true)
      done;
      (* Reset release: the protocol pins it low from here on. *)
      pins.(reset_id) <- Some (Bv.of_int ~width:1 0);
      ignore (settle ctx env ~frontier:true);
      (* Phase B: accumulate the observation points.  Each iteration
         steps a frontier copy and joins it back. *)
      fixpoint env (fun () ->
          let t = Array.copy env in
          ignore
            (fire_seq ctx t ~procs:fire_def ~overwrite:true
               ~record_blocking:false);
          ignore (settle ctx t ~frontier:true);
          let changed = ref false in
          Array.iteri
            (fun i a ->
              let j = join env.(i) a in
              if not (equal_av env.(i) j) then begin
                env.(i) <- j;
                changed := true
              end)
            t;
          !changed);
      env
    end
  in
  { design = d; all = all_env; steady = steady_env; run = run_env; tops;
    clock = clock_id; reset = reset_id; run_distinct; latch_free }

(* ------------------------------------------------------------------ *)
(* Consumers                                                          *)
(* ------------------------------------------------------------------ *)

(* A mutant provably diverges when some checked net has a bit (or a
   disjoint interval) proven differently in the two protocol
   invariants: the first post-reset observation already differs, so
   any tour kills it. *)
let divergence ~nets pristine mutant =
  if not (pristine.run_distinct && mutant.run_distinct) then None
  else begin
    let result = ref None in
    List.iter
      (fun name ->
        if !result = None then
          match
            ( Hashtbl.find_opt pristine.design.Elab.by_name name,
              Hashtbl.find_opt mutant.design.Elab.by_name name )
          with
          | Some pi, Some mi ->
            let p = pristine.run.(pi) and m = mutant.run.(mi) in
            if p.w = m.w && not (wide p) then begin
              let kv = p.kv land m.kv land (p.v lxor m.v) in
              let ku = p.ku land m.ku land (p.u lxor m.u) in
              let disjoint =
                defined p && defined m && (p.hi < m.lo || m.hi < p.lo)
              in
              if kv <> 0 || ku <> 0 || disjoint then
                result :=
                  Some
                    ( name,
                      if disjoint then
                        Printf.sprintf
                          "proven ranges [%d,%d] and [%d,%d] never meet"
                          p.lo p.hi m.lo m.hi
                      else
                        Printf.sprintf
                          "bit %d proven to differ at every cycle"
                          (let k = if kv <> 0 then kv else ku in
                           let i = ref 0 in
                           while k lsr !i land 1 = 0 do incr i done;
                           !i) )
            end
          | _ -> ())
      nets;
    !result
  end

(* ------------------------------------------------------------------ *)
(* Findings                                                           *)
(* ------------------------------------------------------------------ *)

let has_writer (d : Elab.t) u id =
  u.Compile.drivers.(id) <> []
  || Array.exists
       (fun p ->
         match p with
         | Elab.Comb s | Elab.Seq (_, s) -> List.mem id (Elab.stmt_writes s)
         | Elab.Assign _ -> false)
       d.Elab.processes

let constant_net_findings inv =
  let d = inv.design in
  let u = Compile.units d in
  let acc = ref [] in
  Array.iteri
    (fun id a ->
      if not inv.tops.(id) then
        match to_bv a with
        | Some bv when has_writer d u id ->
          let net = d.Elab.nets.(id) in
          acc :=
            Finding.make ~net_id:id ~net:net.Elab.name
              ~loc:(Dataflow.net_loc d id) Finding.Warning "constant-net"
              (Printf.sprintf
                 "proven to hold %s in every reachable evaluation"
                 (Bv.to_string bv))
            :: !acc
        | _ -> ())
    inv.steady;
  !acc

let unreachable_branch_findings inv =
  let d = inv.design in
  let env = inv.run in
  let rd id = if inv.tops.(id) then top (net_width d id) else env.(id) in
  let acc = ref [] in
  let report pi what cond =
    acc :=
      Finding.make ~loc:d.Elab.process_locs.(pi) Finding.Warning
        "unreachable-branch"
        (Printf.sprintf "%s of '%s' can never execute%s" what
           (Dataflow.expr_str d cond)
           (if inv.run_distinct then " after reset" else ""))
      :: !acc
  in
  let rec walk pi s =
    match s with
    | Elab.Nop | Elab.Blocking _ | Elab.Nonblocking _ -> ()
    | Elab.Block ss -> List.iter (walk pi) ss
    | Elab.If (c, t, e) ->
      (match truth (eval rd d c) with
       | `T ->
         (match e with Some _ -> report pi "else-branch" c | None -> ());
         walk pi t
       | `F ->
         report pi "then-branch" c;
         (match e with Some e -> walk pi e | None -> ())
       | `U ->
         walk pi t;
         (match e with Some e -> walk pi e | None -> ()))
    | Elab.Case (sel, items, dflt) ->
      let asel = eval rd d sel in
      List.iter
        (fun (labels, body) ->
          let sts =
            List.map (fun l -> label_status asel (eval rd d l)) labels
          in
          if sts <> [] && List.for_all (( = ) `Miss) sts then
            report pi "case-arm" sel
          else walk pi body)
        items;
      (match dflt with Some b -> walk pi b | None -> ())
  in
  Array.iteri
    (fun pi p ->
      match p with
      | Elab.Comb s | Elab.Seq (_, s) -> walk pi s
      | Elab.Assign _ -> ())
    d.Elab.processes;
  !acc

(* A reset branch that assigns the value the register provably holds
   at every post-reset cycle anyway. *)
let redundant_reset_findings inv =
  match inv.reset with
  | None -> []
  | Some reset_id when inv.run_distinct ->
    let d = inv.design in
    let env = inv.run in
    let rd id = if inv.tops.(id) then top (net_width d id) else env.(id) in
    let acc = ref [] in
    let check pi body =
      let wr ~blocking:_ ~definite:_ id a =
        match (to_bv a, to_bv env.(id)) with
        | Some c, Some inv_c when Bv.equal c inv_c && not inv.tops.(id) ->
          let net = d.Elab.nets.(id) in
          acc :=
            Finding.make ~net_id:id ~net:net.Elab.name
              ~loc:d.Elab.process_locs.(pi) Finding.Warning "redundant-reset"
              (Printf.sprintf
                 "reset assigns %s, which the register provably holds at \
                  every post-reset cycle anyway"
                 (Bv.to_string c))
            :: !acc
        | _ -> ()
      in
      exec rd wr ~def:true d body
    in
    Array.iteri
      (fun pi p ->
        match p with
        | Elab.Seq (_, Elab.If (Elab.Net c, t, _)) when c = reset_id ->
          check pi t
        | Elab.Seq (_, Elab.Block [ Elab.If (Elab.Net c, t, _) ])
          when c = reset_id ->
          check pi t
        | _ -> ())
      d.Elab.processes;
    !acc
  | Some _ -> []

let findings inv =
  Finding.sort
    (constant_net_findings inv
    @ unreachable_branch_findings inv
    @ redundant_reset_findings inv)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

(* Verilog-flavoured bit string, MSB first: 0/1/x/z for fully known
   bits, '-' for a bit proven defined (no x/z) of unknown value, '?'
   for a bit nothing is known about; the value-plane interval follows
   when it carries information beyond the bits. *)
let av_str a =
  if wide a then "top"
  else begin
    let b = Buffer.create (a.w + 24) in
    Buffer.add_string b (string_of_int a.w);
    Buffer.add_string b "'b";
    for i = a.w - 1 downto 0 do
      let kv = a.kv lsr i land 1 = 1 and ku = a.ku lsr i land 1 = 1 in
      let v = a.v lsr i land 1 = 1 and u = a.u lsr i land 1 = 1 in
      Buffer.add_char b
        (if ku && u && kv then (if v then 'x' else 'z')
         else if ku && (not u) && kv then (if v then '1' else '0')
         else if ku && not u then '-'
         else '?')
    done;
    (* The interval is implied when every value-plane bit is known. *)
    if a.kv <> mask a.w && (a.lo > 0 || a.hi < mask a.w) then
      Buffer.add_string b (Printf.sprintf " in [%d,%d]" a.lo a.hi);
    Buffer.contents b
  end

let interesting a = not (equal_av a (top a.w))
