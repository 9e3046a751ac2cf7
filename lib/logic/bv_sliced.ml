(* Bit-sliced (transposed) batched bitvectors.

   [Bv] packs one vector into two plane words: bit i of the planes is
   design bit i.  [Bv_sliced] transposes that layout for batched
   simulation: a value holds ONE design bit per array slot, and each
   slot is a pair of plane words whose bit L is that design bit in
   lane L — up to [lanes_limit] independent simulations advancing
   word-parallel through every operation.

   Encoding per (bit, lane): defined iff the unknown-plane bit is 0,
   in which case the value-plane bit is the value; otherwise value=1
   is X and value=0 is Z — exactly [Bv]'s two-plane convention, so
   [Bv]'s word-parallel plane formulas apply unchanged, just per
   design bit instead of per vector.

   62 lanes keep every plane word a non-negative OCaml int (bit 62 is
   the sign bit of a 63-bit native int).  There is no wide fallback
   here and none is needed: the representation is an array over design
   bits, so any vector width works — width is the array length, and
   the per-word lane count never exceeds 62.  Slots beyond a value's
   width read as defined zero (zero-extension, as in [Bv]).

   One deliberate quirk is inherited from the scalar engines: a shift
   amount or dynamic index wider than [Bv.packed_width_limit] is
   treated as undefined ([Bv.to_int] returns [None] for the wide
   representation), so the sliced ops reproduce that, keeping lane L
   of every operation bit-identical to the scalar [Bv] op. *)

let lanes_limit = 62
let lmask = (1 lsl lanes_limit) - 1

type t = { w : int; v : int array; u : int array }

(* ------------------------------------------------------------------ *)
(* Construction and lane access                                       *)
(* ------------------------------------------------------------------ *)

let make w f =
  if w <= 0 then invalid_arg "Bv_sliced.make: width must be positive";
  let v = Array.make w 0 and u = Array.make w 0 in
  for j = 0 to w - 1 do
    let bv, bu = f j in
    v.(j) <- bv land lmask;
    u.(j) <- bu land lmask
  done;
  { w; v; u }

let broadcast bv =
  make (Bv.width bv) (fun j ->
      match Bv.get bv j with
      | Bit.L0 -> (0, 0)
      | Bit.L1 -> (lmask, 0)
      | Bit.X -> (lmask, lmask)
      | Bit.Z -> (0, lmask))

let of_lanes lanes =
  let n = Array.length lanes in
  if n = 0 || n > lanes_limit then
    invalid_arg "Bv_sliced.of_lanes: lane count out of range";
  let w = Bv.width lanes.(0) in
  Array.iter
    (fun l ->
      if Bv.width l <> w then
        invalid_arg "Bv_sliced.of_lanes: widths differ")
    lanes;
  (* Unoccupied lanes replicate lane 0, so every lane of the result is
     a valid simulation state. *)
  make w (fun j ->
      let v = ref 0 and u = ref 0 in
      for l = 0 to lanes_limit - 1 do
        let bit = Bv.get lanes.(if l < n then l else 0) j in
        (match bit with
         | Bit.L0 -> ()
         | Bit.L1 -> v := !v lor (1 lsl l)
         | Bit.X ->
           v := !v lor (1 lsl l);
           u := !u lor (1 lsl l)
         | Bit.Z -> u := !u lor (1 lsl l))
      done;
      (!v, !u))

let lane t l =
  if l < 0 || l >= lanes_limit then
    invalid_arg "Bv_sliced.lane: lane out of range";
  Bv.of_bits
    (List.init t.w (fun i ->
         let j = t.w - 1 - i in
         let v = (t.v.(j) lsr l) land 1 and u = (t.u.(j) lsr l) land 1 in
         if u = 0 then if v = 0 then Bit.L0 else Bit.L1
         else if v = 0 then Bit.Z
         else Bit.X))

(* ------------------------------------------------------------------ *)
(* Word access helpers                                                *)
(* ------------------------------------------------------------------ *)

(* Zero-extension: bits beyond the width are defined zero. *)
let vw t j = if j < t.w then t.v.(j) else 0
let uw t j = if j < t.w then t.u.(j) else 0

(* Lanes (of any word) carrying an undefined bit anywhere in [t]. *)
let unknown_lanes t =
  let x = ref 0 in
  for j = 0 to t.w - 1 do
    x := !x lor t.u.(j)
  done;
  !x

(* ------------------------------------------------------------------ *)
(* Structural ops                                                     *)
(* ------------------------------------------------------------------ *)

(* The ops below (all but [resize] and [resolve]) fill a caller-owned
   destination.  The batched engine compiles one destination buffer
   per expression node (widths are static), so a settle pass allocates
   nothing in its inner loop — the per-op [make]/[map2] closures this
   replaces were the dominant cost of a fully-live word pass. *)

let create w =
  if w <= 0 then invalid_arg "Bv_sliced.create: width must be positive";
  { w; v = Array.make w 0; u = Array.make w 0 }

let bad_dst name = invalid_arg ("Bv_sliced." ^ name ^ ": dst width mismatch")

let resize t w =
  if w <= 0 then invalid_arg "Bv_sliced.resize: width must be positive";
  if w = t.w then t
  else begin
    let v = Array.make w 0 and u = Array.make w 0 in
    let n = min w t.w in
    Array.blit t.v 0 v 0 n;
    Array.blit t.u 0 u 0 n;
    { w; v; u }
  end

let select_into dst t ~lo =
  if lo < 0 || lo + dst.w > t.w then
    invalid_arg "Bv_sliced.select_into: bad range";
  Array.blit t.v lo dst.v 0 dst.w;
  Array.blit t.u lo dst.u 0 dst.w

(* Lane-masked merge: lanes in [mask] from [a], the rest from [b] —
   the mutant-schemata select. *)
let merge_into ~mask dst a b =
  if dst.w <> max a.w b.w then bad_dst "merge_into";
  let nm = lnot mask in
  for j = 0 to dst.w - 1 do
    dst.v.(j) <- ((vw a j land mask) lor (vw b j land nm)) land lmask;
    dst.u.(j) <- ((uw a j land mask) lor (uw b j land nm)) land lmask
  done

(* ------------------------------------------------------------------ *)
(* Bitwise logic (Bv's plane formulas, applied per design bit)        *)
(* ------------------------------------------------------------------ *)

let logand_into dst a b =
  if dst.w <> max a.w b.w then bad_dst "logand_into";
  for j = 0 to dst.w - 1 do
    let va = vw a j and ua = uw a j and vb = vw b j and ub = uw b j in
    let a0 = lnot va land lnot ua and b0 = lnot vb land lnot ub in
    let r1 = va land lnot ua land (vb land lnot ub) in
    let r0 = a0 lor b0 in
    let rx = lmask land lnot (r0 lor r1) in
    dst.v.(j) <- (r1 lor rx) land lmask;
    dst.u.(j) <- rx
  done

let logor_into dst a b =
  if dst.w <> max a.w b.w then bad_dst "logor_into";
  for j = 0 to dst.w - 1 do
    let va = vw a j and ua = uw a j and vb = vw b j and ub = uw b j in
    let a1 = va land lnot ua and b1 = vb land lnot ub in
    let r1 = a1 lor b1 in
    let r0 = lnot va land lnot ua land (lnot vb land lnot ub) in
    let rx = lmask land lnot (r1 lor r0) in
    dst.v.(j) <- (r1 lor rx) land lmask;
    dst.u.(j) <- rx
  done

let logxor_into dst a b =
  if dst.w <> max a.w b.w then bad_dst "logxor_into";
  for j = 0 to dst.w - 1 do
    let va = vw a j and ua = uw a j and vb = vw b j and ub = uw b j in
    let bd = lnot ua land lnot ub land lmask in
    let rx = lmask land lnot bd in
    dst.v.(j) <- ((va lxor vb) land bd lor rx) land lmask;
    dst.u.(j) <- rx
  done

let lognot_into dst t =
  if dst.w <> t.w then bad_dst "lognot_into";
  for j = 0 to dst.w - 1 do
    let tv = t.v.(j) and tu = t.u.(j) in
    dst.v.(j) <- (lnot tv land lnot tu land lmask) lor tu;
    dst.u.(j) <- tu
  done

let resolve a b =
  let w = max a.w b.w in
  let v = Array.make w 0 and u = Array.make w 0 in
  for j = 0 to w - 1 do
    let va = vw a j and ua = uw a j and vb = vw b j and ub = uw b j in
    let az = ua land lnot va and bz = ub land lnot vb in
    let only_az = az land lnot bz and only_bz = bz land lnot az in
    let both_z = az land bz in
    let neither = lmask land lnot (az lor bz) in
    let def_eq = lnot ua land lnot ub land lnot (va lxor vb) in
    let rx = neither land lnot def_eq in
    v.(j) <-
      (only_az land vb lor (only_bz land va)
       lor (neither land def_eq land va)
       lor rx)
      land lmask;
    u.(j) <-
      (only_az land ub lor (only_bz land ua) lor both_z lor rx) land lmask
  done;
  { w; v; u }

(* ------------------------------------------------------------------ *)
(* Reductions and truth masks                                         *)
(* ------------------------------------------------------------------ *)

let scalar_into dst v u =
  if dst.w <> 1 then bad_dst "scalar_into";
  dst.v.(0) <- v land lmask;
  dst.u.(0) <- u land lmask

let reduce_and_into dst t =
  let r0 = ref 0 and xl = ref 0 in
  for j = 0 to t.w - 1 do
    r0 := !r0 lor (lnot t.v.(j) land lnot t.u.(j) land lmask);
    xl := !xl lor t.u.(j)
  done;
  let r0 = !r0 in
  scalar_into dst (lmask land lnot r0) (!xl land lnot r0)

let reduce_or_into dst t =
  let r1 = ref 0 and xl = ref 0 in
  for j = 0 to t.w - 1 do
    r1 := !r1 lor (t.v.(j) land lnot t.u.(j));
    xl := !xl lor t.u.(j)
  done;
  let rx = !xl land lnot !r1 in
  scalar_into dst (!r1 lor rx) rx

let reduce_xor_into dst t =
  let par = ref 0 and xl = ref 0 in
  for j = 0 to t.w - 1 do
    par := !par lxor t.v.(j);
    xl := !xl lor t.u.(j)
  done;
  scalar_into dst ((!par land lnot !xl) lor !xl) !xl

(* Truth value of a vector as a condition, per lane:
   [t1] = lanes where some bit is 1, [t0] = lanes where all bits are
   0, [tx] = lanes where undefined bits prevent deciding. *)
let truth t =
  let r1 = ref 0 and xl = ref 0 in
  for j = 0 to t.w - 1 do
    r1 := !r1 lor (t.v.(j) land lnot t.u.(j));
    xl := !xl lor t.u.(j)
  done;
  let t1 = !r1 in
  let tx = !xl land lnot t1 in
  (t1, lmask land lnot (t1 lor tx), tx)

(* ------------------------------------------------------------------ *)
(* Arithmetic (ripple carry across design bits; any undefined bit in  *)
(* a lane makes that lane all-X, as in Bv)                            *)
(* ------------------------------------------------------------------ *)

let add_into dst a b =
  if dst.w <> max a.w b.w then bad_dst "add_into";
  let xl = unknown_lanes a lor unknown_lanes b in
  let carry = ref 0 in
  for j = 0 to dst.w - 1 do
    let va = vw a j and vb = vw b j in
    let axb = va lxor vb in
    dst.v.(j) <- ((axb lxor !carry) land lnot xl lor xl) land lmask;
    dst.u.(j) <- xl;
    carry := (va land vb) lor (!carry land axb)
  done

let sub_into dst a b =
  if dst.w <> max a.w b.w then bad_dst "sub_into";
  let xl = unknown_lanes a lor unknown_lanes b in
  (* a + ~b + 1, carry-in 1 on every lane. *)
  let carry = ref lmask in
  for j = 0 to dst.w - 1 do
    let va = vw a j and nb = lnot (vw b j) land lmask in
    let axb = va lxor nb in
    dst.v.(j) <- ((axb lxor !carry) land lnot xl lor xl) land lmask;
    dst.u.(j) <- xl;
    carry := (va land nb) lor (!carry land axb)
  done

(* 0 - t, with the zero operand folded away. *)
let neg_into dst t =
  if dst.w <> t.w then bad_dst "neg_into";
  let xl = unknown_lanes t in
  let carry = ref lmask in
  for j = 0 to dst.w - 1 do
    let nb = lnot t.v.(j) land lmask in
    dst.v.(j) <- ((nb lxor !carry) land lnot xl lor xl) land lmask;
    dst.u.(j) <- xl;
    carry := !carry land nb
  done

let mul_into dst a b =
  if dst.w <> max a.w b.w then bad_dst "mul_into";
  let w = dst.w in
  let xl = unknown_lanes a lor unknown_lanes b in
  (* Shift-add mod 2^w into the destination's value plane, the partial
     product of row i gated per lane on bit i of b. *)
  let acc = dst.v in
  Array.fill acc 0 w 0;
  for i = 0 to w - 1 do
    let cond = vw b i in
    if cond <> 0 then begin
      let carry = ref 0 in
      for j = i to w - 1 do
        let addend = vw a (j - i) land cond in
        let axb = acc.(j) lxor addend in
        let sum = (axb lxor !carry) land lmask in
        carry := (acc.(j) land addend) lor (!carry land axb);
        acc.(j) <- sum
      done
    end
  done;
  for j = 0 to w - 1 do
    dst.v.(j) <- (acc.(j) land lnot xl lor xl) land lmask;
    dst.u.(j) <- xl
  done

(* ------------------------------------------------------------------ *)
(* Relational (scalar result per lane; X on any undefined input bit)  *)
(* ------------------------------------------------------------------ *)

let diff_lanes a b =
  let w = max a.w b.w in
  let d = ref 0 in
  for j = 0 to w - 1 do
    d := !d lor (vw a j lxor vw b j)
  done;
  !d land lmask

let rel_scalar_into dst xl defined_true =
  scalar_into dst ((defined_true land lnot xl) lor xl) xl

let eq_into dst a b =
  let xl = unknown_lanes a lor unknown_lanes b in
  rel_scalar_into dst xl (lmask land lnot (diff_lanes a b))

let neq_into dst a b =
  let xl = unknown_lanes a lor unknown_lanes b in
  rel_scalar_into dst xl (diff_lanes a b)

(* Lanes where a < b unsigned, by ripple from the LSB: at each bit,
   strictly-less is "this bit says less" or "equal here and less
   below". *)
let lt_lanes a b =
  let w = max a.w b.w in
  let lt = ref 0 in
  for j = 0 to w - 1 do
    let va = vw a j and vb = vw b j in
    lt := (lnot va land vb) lor (lnot (va lxor vb) land !lt)
  done;
  !lt land lmask

let lt_into dst a b =
  let xl = unknown_lanes a lor unknown_lanes b in
  rel_scalar_into dst xl (lt_lanes a b)

let ge_into dst a b =
  let xl = unknown_lanes a lor unknown_lanes b in
  rel_scalar_into dst xl (lmask land lnot (lt_lanes a b))

let gt_into dst a b = lt_into dst b a
let le_into dst a b = ge_into dst b a

(* Verilog ===: exact per-bit match including X and Z; always
   defined. *)
let case_diff_lanes a b =
  let w = max a.w b.w in
  let d = ref 0 in
  for j = 0 to w - 1 do
    d := !d lor (vw a j lxor vw b j) lor (uw a j lxor uw b j)
  done;
  !d land lmask

let case_eq_into dst a b =
  scalar_into dst (lmask land lnot (case_diff_lanes a b)) 0

let case_neq_into dst a b = scalar_into dst (case_diff_lanes a b) 0

(* ------------------------------------------------------------------ *)
(* Logical && / || (full truth evaluation of both sides, as the       *)
(* interpreter does — no short circuit)                               *)
(* ------------------------------------------------------------------ *)

let logical_and_into dst a b =
  let t1a, t0a, _ = truth a and t1b, t0b, _ = truth b in
  let decided = (t1a lor t0a) land (t1b lor t0b) in
  let r1 = t1a land t1b in
  let und = lmask land lnot decided in
  scalar_into dst ((r1 land decided) lor und) und

let logical_or_into dst a b =
  let t1a, t0a, _ = truth a and t1b, t0b, _ = truth b in
  let decided = (t1a lor t0a) land (t1b lor t0b) in
  let r1 = t1a lor t1b in
  let und = lmask land lnot decided in
  scalar_into dst ((r1 land decided) lor und) und

let logical_not_into dst a =
  let _, t0, tx = truth a in
  scalar_into dst (t0 lor tx) tx

(* ------------------------------------------------------------------ *)
(* Ternary / mux with a per-lane select                               *)
(* ------------------------------------------------------------------ *)

(* sel is 1-wide (or wider — its truth value decides): lanes where the
   condition is true take [a], false take [b], undecided take the
   X-select mux (defined-and-agreeing bits survive, the rest X). *)
let mux_into ~sel dst a b =
  if dst.w <> max a.w b.w then bad_dst "mux_into";
  let s1, s0, sx = truth sel in
  for j = 0 to dst.w - 1 do
    let va = vw a j and ua = uw a j and vb = vw b j and ub = uw b j in
    let d = lnot ua land lnot ub land lnot (va lxor vb) land lmask in
    let rx = sx land lnot d in
    dst.v.(j) <-
      ((va land s1) lor (vb land s0) lor (sx land d land va) lor rx)
      land lmask;
    dst.u.(j) <- ((ua land s1) lor (ub land s0) lor rx) land lmask
  done

(* ------------------------------------------------------------------ *)
(* Per-lane decoded index helpers                                     *)
(* ------------------------------------------------------------------ *)

(* Lanes where [idx] equals the constant [n] with every bit defined.
   A lane of an index wider than [Bv.packed_width_limit] is treated as
   undefined, matching [Bv.to_int] on the wide representation. *)
let eq_const_lanes idx n =
  if idx.w > Bv.packed_width_limit then 0
  else begin
    let defined = lmask land lnot (unknown_lanes idx) in
    let d = ref 0 in
    for j = 0 to idx.w - 1 do
      let bit = if (n lsr j) land 1 = 1 then lmask else 0 in
      d := !d lor (idx.v.(j) lxor bit)
    done;
    (* Values of n that need bits beyond the index width never match. *)
    if n lsr idx.w <> 0 then 0 else defined land lnot !d
  end

let defined_lanes idx =
  if idx.w > Bv.packed_width_limit then 0
  else lmask land lnot (unknown_lanes idx)

(* ------------------------------------------------------------------ *)
(* Shifts and dynamic index (per-lane amount)                         *)
(* ------------------------------------------------------------------ *)

let shift_left_into dst t amt =
  if dst.w <> t.w then bad_dst "shift_left_into";
  let w = dst.w in
  let v = dst.v and u = dst.u in
  Array.fill v 0 w 0;
  Array.fill u 0 w 0;
  for n = 0 to w - 1 do
    let en = eq_const_lanes amt n in
    if en <> 0 then
      for j = n to w - 1 do
        v.(j) <- v.(j) lor (t.v.(j - n) land en);
        u.(j) <- u.(j) lor (t.u.(j - n) land en)
      done
  done;
  (* Defined amounts >= w shift everything out (zero, the default);
     undefined amounts give all-X. *)
  let xl = lmask land lnot (defined_lanes amt) in
  if xl <> 0 then
    for j = 0 to w - 1 do
      v.(j) <- v.(j) lor xl;
      u.(j) <- u.(j) lor xl
    done

let shift_right_into dst t amt =
  if dst.w <> t.w then bad_dst "shift_right_into";
  let w = dst.w in
  let v = dst.v and u = dst.u in
  Array.fill v 0 w 0;
  Array.fill u 0 w 0;
  for n = 0 to w - 1 do
    let en = eq_const_lanes amt n in
    if en <> 0 then
      for j = 0 to w - 1 - n do
        v.(j) <- v.(j) lor (t.v.(j + n) land en);
        u.(j) <- u.(j) lor (t.u.(j + n) land en)
      done
  done;
  let xl = lmask land lnot (defined_lanes amt) in
  if xl <> 0 then
    for j = 0 to w - 1 do
      v.(j) <- v.(j) lor xl;
      u.(j) <- u.(j) lor xl
    done

(* Dynamic bit select [t[idx]]: out-of-range or undefined indices read
   X, per the interpreter. *)
let index_into dst t idx =
  let rv = ref 0 and ru = ref 0 and covered = ref 0 in
  for n = 0 to t.w - 1 do
    let en = eq_const_lanes idx n in
    if en <> 0 then begin
      covered := !covered lor en;
      rv := !rv lor (t.v.(n) land en);
      ru := !ru lor (t.u.(n) land en)
    end
  done;
  let bad = lmask land lnot !covered in
  scalar_into dst (!rv lor bad) (!ru lor bad)
