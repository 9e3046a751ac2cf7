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
(* Operator semantics                                                 *)
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
