(* Two-plane packed bitvectors.

   A vector of width <= [packed_width_limit] is stored as two native
   ints — a value plane [v] and an unknown plane [u].  Bit i is
   defined iff bit i of [u] is 0, in which case bit i of [v] is its
   value; otherwise [v]=1 encodes X and [v]=0 encodes Z.  Both planes
   are zero above the width, so zero-extension is free and packed
   logic/arithmetic runs word-parallel instead of per-bit.

   Wider vectors fall back to the original representation, an array of
   [Bit.t] with index 0 the least significant bit.  The packed form is
   canonical: any vector of width <= [packed_width_limit] is [P],
   anything wider is [W], so [equal] never mixes forms at the
   same width. *)

type t =
  | P of { w : int; v : int; u : int }
  | W of Bit.t array

(* 62 keeps every plane a non-negative OCaml int (bit 62 is the sign
   bit of a 63-bit native int), so masks, comparisons and shifts never
   see negative values. *)
let packed_width_limit = 62

let mask_of w = (1 lsl w) - 1

let width = function P { w; _ } -> w | W a -> Array.length a

(* ------------------------------------------------------------------ *)
(* Array-representation reference ops (wide fallback)                 *)
(* ------------------------------------------------------------------ *)

module A = struct
  let resize a w =
    Array.init w (fun i -> if i < Array.length a then a.(i) else Bit.L0)

  let map2 f a b =
    let w = max (Array.length a) (Array.length b) in
    let a = if Array.length a = w then a else resize a w
    and b = if Array.length b = w then b else resize b w in
    Array.init w (fun i -> f a.(i) b.(i))

  let is_defined a = Array.for_all Bit.is_defined a
  let defined2 a b = is_defined a && is_defined b
  let all_x w = Array.make w Bit.X

  let add a b =
    let w = max (Array.length a) (Array.length b) in
    if not (defined2 a b) then all_x w
    else begin
      let a = resize a w and b = resize b w in
      let out = Array.make w Bit.L0 in
      let carry = ref false in
      for i = 0 to w - 1 do
        let ab = Bit.equal a.(i) Bit.L1 and bb = Bit.equal b.(i) Bit.L1 in
        let sum = Bool.to_int ab + Bool.to_int bb + Bool.to_int !carry in
        out.(i) <- Bit.of_bool (sum land 1 = 1);
        carry := sum >= 2
      done;
      out
    end

  let neg a =
    let w = Array.length a in
    if not (is_defined a) then all_x w
    else
      add (Array.map Bit.lognot a)
        (Array.init w (fun i -> Bit.of_bool (i = 0)))

  let sub a b =
    let w = max (Array.length a) (Array.length b) in
    if not (defined2 a b) then all_x w else add (resize a w) (neg (resize b w))

  let mul a b =
    let w = max (Array.length a) (Array.length b) in
    if not (defined2 a b) then all_x w
    else begin
      let a = resize a w and b = resize b w in
      let acc = ref (Array.make w Bit.L0) in
      for i = 0 to w - 1 do
        if Bit.equal b.(i) Bit.L1 then begin
          let shifted =
            Array.init w (fun j -> if j < i then Bit.L0 else a.(j - i))
          in
          acc := add !acc shifted
        end
      done;
      !acc
    end

  let equal_arr a b =
    Array.length a = Array.length b && Array.for_all2 Bit.equal a b

  let ult a b =
    let w = max (Array.length a) (Array.length b) in
    let a = resize a w and b = resize b w in
    let rec loop i =
      if i < 0 then false
      else if Bit.equal a.(i) b.(i) then loop (i - 1)
      else Bit.equal b.(i) Bit.L1
    in
    loop (w - 1)
end

(* ------------------------------------------------------------------ *)
(* Representation conversion                                          *)
(* ------------------------------------------------------------------ *)

let bit_planes = function
  | Bit.L0 -> (0, 0)
  | Bit.L1 -> (1, 0)
  | Bit.X -> (1, 1)
  | Bit.Z -> (0, 1)

let planes_bit v u =
  if u = 0 then if v = 0 then Bit.L0 else Bit.L1
  else if v = 0 then Bit.Z
  else Bit.X

let pack_arr a =
  let w = Array.length a in
  let v = ref 0 and u = ref 0 in
  for i = 0 to w - 1 do
    let bv, bu = bit_planes a.(i) in
    v := !v lor (bv lsl i);
    u := !u lor (bu lsl i)
  done;
  P { w; v = !v; u = !u }

let of_arr a = if Array.length a <= packed_width_limit then pack_arr a else W a

let to_arr = function
  | W a -> a
  | P { w; v; u } ->
    Array.init w (fun i -> planes_bit ((v lsr i) land 1) ((u lsr i) land 1))

(* Fast-path interop for the compiled simulator. *)
let planes = function P { v; u; _ } -> Some (v, u) | W _ -> None

let value_plane = function
  | P { v; _ } -> v
  | W _ -> invalid_arg "Bv.value_plane: wide vector"

let unknown_plane = function
  | P { u; _ } -> u
  | W _ -> invalid_arg "Bv.unknown_plane: wide vector"

let of_planes ~width:w v u =
  if w <= 0 || w > packed_width_limit then
    invalid_arg "Bv.of_planes: width out of packed range";
  let m = mask_of w in
  P { w; v = v land m; u = u land m }

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create w b =
  if w <= 0 then invalid_arg "Bv.create: width must be positive";
  if w <= packed_width_limit then begin
    let bv, bu = bit_planes b in
    let m = mask_of w in
    P { w; v = (if bv = 1 then m else 0); u = (if bu = 1 then m else 0) }
  end
  else W (Array.make w b)

let zero w = create w Bit.L0
let ones w = create w Bit.L1
let all_x w = create w Bit.X
let all_z w = create w Bit.Z

let of_int ~width:w v =
  if w <= 0 then invalid_arg "Bv.of_int: width must be positive";
  if v < 0 then invalid_arg "Bv.of_int: negative value";
  if w <= packed_width_limit then P { w; v = v land mask_of w; u = 0 }
  else
    W (Array.init w (fun i ->
           Bit.of_bool (i <= 62 && v lsr i land 1 = 1)))

let to_int = function
  | P { v; u; _ } -> if u = 0 then Some v else None
  | W _ -> None (* width > 62 *)

let to_int_exn t =
  match to_int t with
  | Some n -> n
  | None -> invalid_arg "Bv.to_int_exn: undefined bits"

let of_bits bits =
  match bits with
  | [] -> invalid_arg "Bv.of_bits: empty"
  | _ ->
    let arr = Array.of_list bits in
    let n = Array.length arr in
    of_arr (Array.init n (fun i -> arr.(n - 1 - i)))

let of_string s =
  let bits = ref [] in
  String.iter (fun c -> if c <> '_' then bits := Bit.of_char c :: !bits) s;
  match !bits with
  | [] -> invalid_arg "Bv.of_string: empty"
  | lsb_first -> of_arr (Array.of_list lsb_first)

(* ------------------------------------------------------------------ *)
(* Access                                                             *)
(* ------------------------------------------------------------------ *)

let get t i =
  if i < 0 || i >= width t then invalid_arg "Bv.get: index out of range";
  match t with
  | P { v; u; _ } -> planes_bit ((v lsr i) land 1) ((u lsr i) land 1)
  | W a -> a.(i)

let to_string t =
  let w = width t in
  String.init w (fun i -> Bit.to_char (get t (w - 1 - i)))

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal a b =
  match a, b with
  | P a, P b -> a.w = b.w && a.v = b.v && a.u = b.u
  | W a, W b -> A.equal_arr a b
  | P _, W _ | W _, P _ -> false (* canonical: widths necessarily differ *)

let is_defined = function P { u; _ } -> u = 0 | W a -> A.is_defined a

let resize t w =
  if w <= 0 then invalid_arg "Bv.resize: width must be positive";
  if w = width t then t
  else
    match t with
    | P { v; u; _ } when w <= packed_width_limit ->
      let m = mask_of w in
      P { w; v = v land m; u = u land m }
    | _ -> of_arr (A.resize (to_arr t) w)

let concat hi lo =
  let wh = width hi and wl = width lo in
  match hi, lo with
  | P h, P l when wh + wl <= packed_width_limit ->
    P { w = wh + wl; v = (h.v lsl wl) lor l.v; u = (h.u lsl wl) lor l.u }
  | _ -> of_arr (Array.append (to_arr lo) (to_arr hi))

let select t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= width t then invalid_arg "Bv.select: bad range";
  match t with
  | P { v; u; _ } ->
    let w = hi - lo + 1 in
    let m = mask_of w in
    P { w; v = (v lsr lo) land m; u = (u lsr lo) land m }
  | W a -> of_arr (Array.sub a lo (hi - lo + 1))

let insert t ~lo src =
  let w = width t and ws = width src in
  if lo < 0 || lo + ws > w then invalid_arg "Bv.insert: bad range";
  match t, src with
  | P d, P s ->
    let clear = lnot (mask_of ws lsl lo) in
    P
      {
        w;
        v = (d.v land clear) lor (s.v lsl lo);
        u = (d.u land clear) lor (s.u lsl lo);
      }
  | _ ->
    let a = Array.copy (to_arr t) and s = to_arr src in
    Array.blit s 0 a lo ws;
    of_arr a

let repeat n t =
  if n <= 0 then invalid_arg "Bv.repeat: count must be positive";
  let w = width t in
  if n * w <= packed_width_limit then begin
    match t with
    | P { v; u; _ } ->
      let rv = ref 0 and ru = ref 0 in
      for i = 0 to n - 1 do
        rv := !rv lor (v lsl (i * w));
        ru := !ru lor (u lsl (i * w))
      done;
      P { w = n * w; v = !rv; u = !ru }
    | W _ -> assert false
  end
  else
    let a = to_arr t in
    of_arr (Array.init (n * w) (fun i -> a.(i mod w)))

(* ------------------------------------------------------------------ *)
(* Bitwise logic                                                      *)
(* ------------------------------------------------------------------ *)

(* Word-parallel plane formulas.  Naming: [a0]/[a1] are the defined-0
   and defined-1 bits of [a]; the result planes encode X as v=1,u=1
   and Z as v=0,u=1. *)

let packed2 f g a b =
  match a, b with
  | P pa, P pb ->
    let w = max pa.w pb.w in
    let m = mask_of w in
    f ~m ~va:pa.v ~ua:pa.u ~vb:pb.v ~ub:pb.u w
  | _ -> of_arr (A.map2 g (to_arr a) (to_arr b))

let logand =
  packed2
    (fun ~m ~va ~ua ~vb ~ub w ->
      let a0 = lnot va land lnot ua and b0 = lnot vb land lnot ub in
      let r1 = va land lnot ua land (vb land lnot ub) in
      let r0 = a0 lor b0 in
      let rx = m land lnot (r0 lor r1) in
      P { w; v = (r1 lor rx) land m; u = rx })
    Bit.logand

let logor =
  packed2
    (fun ~m ~va ~ua ~vb ~ub w ->
      let a1 = va land lnot ua and b1 = vb land lnot ub in
      let r1 = a1 lor b1 in
      let r0 = lnot va land lnot ua land (lnot vb land lnot ub) in
      let rx = m land lnot (r1 lor r0) in
      P { w; v = (r1 lor rx) land m; u = rx })
    Bit.logor

let logxor =
  packed2
    (fun ~m ~va ~ua ~vb ~ub w ->
      let bd = lnot ua land lnot ub land m in
      let rx = m land lnot bd in
      P { w; v = (va lxor vb) land bd lor rx; u = rx })
    Bit.logxor

let lognot = function
  | P { w; v; u } ->
    let m = mask_of w in
    P { w; v = (lnot v land lnot u land m) lor u; u }
  | W a -> W (Array.map Bit.lognot a)

let resolve =
  packed2
    (fun ~m ~va ~ua ~vb ~ub w ->
      let az = ua land lnot va and bz = ub land lnot vb in
      let only_az = az land lnot bz and only_bz = bz land lnot az in
      let both_z = az land bz in
      let neither = m land lnot (az lor bz) in
      let def_eq = lnot ua land lnot ub land lnot (va lxor vb) in
      let rx = neither land lnot def_eq in
      P
        {
          w;
          v =
            only_az land vb lor (only_bz land va)
            lor (neither land def_eq land va)
            lor rx;
          u = only_az land ub lor (only_bz land ua) lor both_z lor rx;
        })
    Bit.resolve

(* ------------------------------------------------------------------ *)
(* Reductions and truth value                                         *)
(* ------------------------------------------------------------------ *)

let reduce_and = function
  | P { w; v; u } ->
    if lnot v land lnot u land mask_of w <> 0 then Bit.L0
    else if u <> 0 then Bit.X
    else Bit.L1
  | W a -> Array.fold_left Bit.logand Bit.L1 a

let reduce_or = function
  | P { v; u; _ } ->
    if v land lnot u <> 0 then Bit.L1 else if u <> 0 then Bit.X else Bit.L0
  | W a -> Array.fold_left Bit.logor Bit.L0 a

let parity v =
  let rec go acc v = if v = 0 then acc else go (acc lxor (v land 1)) (v lsr 1) in
  go 0 v

let reduce_xor = function
  | P { v; u; _ } ->
    if u <> 0 then Bit.X else if parity v = 1 then Bit.L1 else Bit.L0
  | W a -> Array.fold_left Bit.logxor Bit.L0 a

let to_bool t = Bit.to_bool (reduce_or t)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                         *)
(* ------------------------------------------------------------------ *)

let arith2 f g a b =
  match a, b with
  | P pa, P pb ->
    let w = max pa.w pb.w in
    if pa.u lor pb.u <> 0 then all_x w
    else P { w; v = f pa.v pb.v land mask_of w; u = 0 }
  | _ -> of_arr (g (to_arr a) (to_arr b))

let add = arith2 ( + ) A.add
let sub = arith2 ( - ) A.sub

(* Native [*] wraps mod 2^63; masking keeps the low [w] bits, which is
   exactly the array path's shift-add mod 2^w. *)
let mul = arith2 ( * ) A.mul

let neg = function
  | P { w; v; u } ->
    if u <> 0 then all_x w else P { w; v = -v land mask_of w; u = 0 }
  | W a -> of_arr (A.neg a)

(* ------------------------------------------------------------------ *)
(* Relational                                                         *)
(* ------------------------------------------------------------------ *)

let rel2 f g a b =
  match a, b with
  | P pa, P pb ->
    if pa.u lor pb.u <> 0 then Bit.X else Bit.of_bool (f pa.v pb.v)
  | _ ->
    let a = to_arr a and b = to_arr b in
    if A.defined2 a b then Bit.of_bool (g a b) else Bit.X

let eq = rel2 ( = ) (fun a b ->
    let w = max (Array.length a) (Array.length b) in
    A.equal_arr (A.resize a w) (A.resize b w))

let neq a b = Bit.lognot (eq a b)
let lt = rel2 ( < ) A.ult
let ge = rel2 ( >= ) (fun a b -> not (A.ult a b))
let gt a b = lt b a
let le a b = ge b a

let case_eq a b =
  match a, b with
  | P pa, P pb -> Bit.of_bool (pa.v = pb.v && pa.u = pb.u)
  | _ ->
    let a = to_arr a and b = to_arr b in
    let w = max (Array.length a) (Array.length b) in
    Bit.of_bool (A.equal_arr (A.resize a w) (A.resize b w))

(* ------------------------------------------------------------------ *)
(* Shifts                                                             *)
(* ------------------------------------------------------------------ *)

let shift_left t amt =
  let w = width t in
  match to_int amt with
  | None -> all_x w
  | Some n -> (
    match t with
    | P { v; u; _ } ->
      if n >= w then zero w
      else
        let m = mask_of w in
        P { w; v = (v lsl n) land m; u = (u lsl n) land m }
    | W a ->
      of_arr (Array.init w (fun i -> if i < n then Bit.L0 else a.(i - n))))

let shift_right t amt =
  let w = width t in
  match to_int amt with
  | None -> all_x w
  | Some n -> (
    match t with
    | P { v; u; _ } ->
      if n >= w then zero w else P { w; v = v lsr n; u = u lsr n }
    | W a ->
      of_arr
        (Array.init w (fun i -> if i + n < w then a.(i + n) else Bit.L0)))

(* ------------------------------------------------------------------ *)
(* Mux                                                                *)
(* ------------------------------------------------------------------ *)

let mux ~sel a b =
  match sel with
  | Bit.L1 -> a
  | Bit.L0 -> b
  | Bit.X | Bit.Z -> (
    match a, b with
    | P pa, P pb ->
      let w = max pa.w pb.w in
      let m = mask_of w in
      let d = lnot pa.u land lnot pb.u land lnot (pa.v lxor pb.v) land m in
      let rx = m land lnot d in
      P { w; v = pa.v land d lor rx; u = rx }
    | _ ->
      let a = to_arr a and b = to_arr b in
      let w = max (Array.length a) (Array.length b) in
      of_arr (A.map2 (fun x y -> Bit.mux ~sel x y) (A.resize a w) (A.resize b w)))
