exception Error of string * int

let fail line fmt = Format.kasprintf (fun m -> raise (Error (m, line))) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tmodel | Tstate | Tchoice | Tupdate | Tend
  | Tif | Tthen | Telsif | Telse
  | Tbool | Ttrue | Tfalse
  | Tident of string
  | Tint of int
  | Tcolon | Tassign | Tsemi | Tcomma | Tlbrace | Trbrace | Tlparen
  | Trparen | Tdotdot | Teq | Tneq | Tle | Tge | Tlt | Tgt | Tamp | Tbar
  | Tbang | Tplus | Tminus | Tstar | Tquestion | Teq1
  | Teof

let token_name = function
  | Tmodel -> "model" | Tstate -> "state" | Tchoice -> "choice"
  | Tupdate -> "update" | Tend -> "end" | Tif -> "if" | Tthen -> "then"
  | Telsif -> "elsif" | Telse -> "else" | Tbool -> "bool"
  | Ttrue -> "true" | Tfalse -> "false"
  | Tident s -> s
  | Tint n -> string_of_int n
  | Tcolon -> ":" | Tassign -> ":=" | Tsemi -> ";" | Tcomma -> ","
  | Tlbrace -> "{" | Trbrace -> "}" | Tlparen -> "(" | Trparen -> ")"
  | Tdotdot -> ".." | Teq -> "==" | Tneq -> "!=" | Tle -> "<=" | Tge -> ">="
  | Tlt -> "<" | Tgt -> ">" | Tamp -> "&" | Tbar -> "|" | Tbang -> "!"
  | Tplus -> "+" | Tminus -> "-" | Tstar -> "*" | Tquestion -> "?"
  | Teq1 -> "=" | Teof -> "<eof>"

let keyword = function
  | "model" -> Some Tmodel
  | "state" -> Some Tstate
  | "choice" -> Some Tchoice
  | "update" -> Some Tupdate
  | "end" -> Some Tend
  | "if" -> Some Tif
  | "then" -> Some Tthen
  | "elsif" -> Some Telsif
  | "else" -> Some Telse
  | "bool" -> Some Tbool
  | "true" -> Some Ttrue
  | "false" -> Some Tfalse
  | _ -> None

let tokenize src =
  let toks = ref [] in
  let line = ref 1 in
  let n = String.length src in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let emit t = toks := (t, !line) :: !toks in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '-' && peek 1 = Some '-' then begin
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !pos in
      while
        !pos < n
        && (let d = src.[!pos] in
            (d >= 'a' && d <= 'z')
            || (d >= 'A' && d <= 'Z')
            || (d >= '0' && d <= '9')
            || d = '_')
      do
        incr pos
      done;
      let word = String.sub src start (!pos - start) in
      emit (match keyword word with Some k -> k | None -> Tident word)
    end
    else if c >= '0' && c <= '9' then begin
      let start = !pos in
      while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
        incr pos
      done;
      emit (Tint (int_of_string (String.sub src start (!pos - start))))
    end
    else begin
      let two t =
        emit t;
        pos := !pos + 2
      in
      let one t =
        emit t;
        incr pos
      in
      match c, peek 1 with
      | ':', Some '=' -> two Tassign
      | ':', _ -> one Tcolon
      | '.', Some '.' -> two Tdotdot
      | '=', Some '=' -> two Teq
      | '=', _ -> one Teq1
      | '!', Some '=' -> two Tneq
      | '!', _ -> one Tbang
      | '<', Some '=' -> two Tle
      | '<', _ -> one Tlt
      | '>', Some '=' -> two Tge
      | '>', _ -> one Tgt
      | ';', _ -> one Tsemi
      | ',', _ -> one Tcomma
      | '{', _ -> one Tlbrace
      | '}', _ -> one Trbrace
      | '(', _ -> one Tlparen
      | ')', _ -> one Trparen
      | '&', _ -> one Tamp
      | '|', _ -> one Tbar
      | '+', _ -> one Tplus
      | '-', _ -> one Tminus
      | '*', _ -> one Tstar
      | '?', _ -> one Tquestion
      | c, _ -> fail !line "unexpected character %C" c
    end
  done;
  emit Teof;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* AST                                                                *)
(* ------------------------------------------------------------------ *)

type ty = Bool | Range of int * int | Enum of string array

type expr =
  | Lit of int
  | Ref of string * int  (* name, line *)
  | Unop of [ `Not | `Neg ] * expr
  | Binop of
      [ `And | `Or | `Eq | `Neq | `Lt | `Le | `Gt | `Ge | `Add | `Sub
      | `Mul ]
      * expr
      * expr
  | Cond of expr * expr * expr

type stmt =
  | Assign of string * expr * int  (* line *)
  | If of (expr * stmt list) list * stmt list option

type decl = {
  d_state : bool;
  d_name : string;
  d_ty : ty;
  d_init : expr option;
  d_line : int;
}

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type ps = { toks : (token * int) array; mutable cur : int }

let tok ps = fst ps.toks.(ps.cur)
let lno ps = snd ps.toks.(ps.cur)
let advance ps = if ps.cur < Array.length ps.toks - 1 then ps.cur <- ps.cur + 1

let expect ps t =
  if tok ps = t then advance ps
  else fail (lno ps) "expected '%s' but found '%s'" (token_name t)
         (token_name (tok ps))

let expect_ident ps =
  match tok ps with
  | Tident s ->
    advance ps;
    s
  | t -> fail (lno ps) "expected identifier but found '%s'" (token_name t)

(* expressions; enum literals are resolved later, so references and
   enum literals both parse as Ref *)
let rec parse_primary ps =
  match tok ps with
  | Tint v ->
    advance ps;
    Lit v
  | Ttrue ->
    advance ps;
    Lit 1
  | Tfalse ->
    advance ps;
    Lit 0
  | Tident name ->
    let line = lno ps in
    advance ps;
    Ref (name, line)
  | Tlparen ->
    advance ps;
    let e = parse_expr ps in
    expect ps Trparen;
    e
  | Tbang ->
    advance ps;
    Unop (`Not, parse_primary ps)
  | Tminus ->
    advance ps;
    Unop (`Neg, parse_primary ps)
  | t -> fail (lno ps) "expected expression but found '%s'" (token_name t)

and parse_mul ps =
  let rec loop lhs =
    if tok ps = Tstar then begin
      advance ps;
      loop (Binop (`Mul, lhs, parse_primary ps))
    end
    else lhs
  in
  loop (parse_primary ps)

and parse_add ps =
  let rec loop lhs =
    match tok ps with
    | Tplus ->
      advance ps;
      loop (Binop (`Add, lhs, parse_mul ps))
    | Tminus ->
      advance ps;
      loop (Binop (`Sub, lhs, parse_mul ps))
    | _ -> lhs
  in
  loop (parse_mul ps)

and parse_cmp ps =
  let lhs = parse_add ps in
  let op =
    match tok ps with
    | Teq -> Some `Eq
    | Tneq -> Some `Neq
    | Tlt -> Some `Lt
    | Tle -> Some `Le
    | Tgt -> Some `Gt
    | Tge -> Some `Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance ps;
    Binop (op, lhs, parse_add ps)

and parse_and ps =
  let rec loop lhs =
    if tok ps = Tamp then begin
      advance ps;
      loop (Binop (`And, lhs, parse_cmp ps))
    end
    else lhs
  in
  loop (parse_cmp ps)

and parse_or ps =
  let rec loop lhs =
    if tok ps = Tbar then begin
      advance ps;
      loop (Binop (`Or, lhs, parse_and ps))
    end
    else lhs
  in
  loop (parse_and ps)

and parse_expr ps =
  let c = parse_or ps in
  if tok ps = Tquestion then begin
    advance ps;
    let t = parse_expr ps in
    expect ps Tcolon;
    let f = parse_expr ps in
    Cond (c, t, f)
  end
  else c

let parse_ty ps =
  match tok ps with
  | Tbool ->
    advance ps;
    Bool
  | Tint lo ->
    advance ps;
    expect ps Tdotdot;
    (match tok ps with
     | Tint hi ->
       advance ps;
       if hi < lo then fail (lno ps) "empty range %d..%d" lo hi;
       Range (lo, hi)
     | t -> fail (lno ps) "expected range bound, found '%s'" (token_name t))
  | Tlbrace ->
    advance ps;
    let rec names acc =
      let n = expect_ident ps in
      if tok ps = Tcomma then begin
        advance ps;
        names (n :: acc)
      end
      else begin
        expect ps Trbrace;
        List.rev (n :: acc)
      end
    in
    Enum (Array.of_list (names []))
  | t -> fail (lno ps) "expected a type, found '%s'" (token_name t)

let rec parse_stmts ps =
  let rec loop acc =
    match tok ps with
    | Tident _ ->
      let line = lno ps in
      let name = expect_ident ps in
      expect ps Tassign;
      let e = parse_expr ps in
      expect ps Tsemi;
      loop (Assign (name, e, line) :: acc)
    | Tif ->
      advance ps;
      let cond = parse_expr ps in
      expect ps Tthen;
      let body = parse_stmts ps in
      let rec branches acc_b =
        match tok ps with
        | Telsif ->
          advance ps;
          let c = parse_expr ps in
          expect ps Tthen;
          let b = parse_stmts ps in
          branches ((c, b) :: acc_b)
        | Telse ->
          advance ps;
          let b = parse_stmts ps in
          expect ps Tend;
          (List.rev acc_b, Some b)
        | Tend ->
          advance ps;
          (List.rev acc_b, None)
        | t ->
          fail (lno ps) "expected elsif/else/end, found '%s'" (token_name t)
      in
      let rest, dflt = branches [] in
      (* optional ';' after end *)
      if tok ps = Tsemi then advance ps;
      loop (If ((cond, body) :: rest, dflt) :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_file src =
  let ps = { toks = tokenize src; cur = 0 } in
  expect ps Tmodel;
  let name = expect_ident ps in
  let decls = ref [] in
  let rec decl_loop () =
    match tok ps with
    | Tstate | Tchoice ->
      let d_state = tok ps = Tstate in
      let d_line = lno ps in
      advance ps;
      let d_name = expect_ident ps in
      expect ps Tcolon;
      let d_ty = parse_ty ps in
      let d_init =
        if tok ps = Teq1 then begin
          advance ps;
          Some (parse_expr ps)
        end
        else None
      in
      decls := { d_state; d_name; d_ty; d_init; d_line } :: !decls;
      decl_loop ()
    | _ -> ()
  in
  decl_loop ();
  expect ps Tupdate;
  let body = parse_stmts ps in
  expect ps Tend;
  if tok ps <> Teof then
    fail (lno ps) "trailing input after the update block";
  (name, List.rev !decls, body)

(* ------------------------------------------------------------------ *)
(* Elaboration to a Model                                             *)
(* ------------------------------------------------------------------ *)

let ty_values = function
  | Bool -> [| "false"; "true" |]
  | Range (lo, hi) -> Array.init (hi - lo + 1) (fun i -> string_of_int (lo + i))
  | Enum names -> names

(* Actual value <-> index within the domain. *)
let index_of_actual ty v =
  match ty with
  | Bool | Enum _ -> v
  | Range (lo, _) -> v - lo

let actual_of_index ty i =
  match ty with
  | Bool | Enum _ -> i
  | Range (lo, _) -> lo + i

let model_name src =
  let name, _, _ = parse_file src in
  name

let parse src =
  let name, decls, body = parse_file src in
  (* Symbol tables. *)
  let var_tbl = Hashtbl.create 16 in
  let enum_tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem var_tbl d.d_name then
        fail d.d_line "duplicate variable %s" d.d_name;
      Hashtbl.replace var_tbl d.d_name d;
      match d.d_ty with
      | Enum names ->
        Array.iteri
          (fun i lit ->
            if Hashtbl.mem enum_tbl lit then
              fail d.d_line "enum literal %s declared twice" lit;
            Hashtbl.replace enum_tbl lit i)
          names
      | Bool | Range _ -> ())
    decls;
  (* Static name checking: every reference resolves, every assignment
     target is a state variable. *)
  let rec check_expr e =
    match e with
    | Lit _ -> ()
    | Ref (n, line) ->
      if not (Hashtbl.mem var_tbl n || Hashtbl.mem enum_tbl n) then
        fail line "unknown name %s" n
    | Unop (_, e) -> check_expr e
    | Binop (_, a, b) ->
      check_expr a;
      check_expr b
    | Cond (c, a, b) ->
      check_expr c;
      check_expr a;
      check_expr b
  in
  (* Constant folding (variables block folding; enum literals and
     arithmetic fold) for static range checks. *)
  let rec cfold e =
    match e with
    | Lit v -> Some v
    | Ref (n, _) ->
      if Hashtbl.mem var_tbl n then None else Hashtbl.find_opt enum_tbl n
    | Unop (op, e) ->
      Option.map
        (fun v -> match op with `Not -> (if v = 0 then 1 else 0) | `Neg -> -v)
        (cfold e)
    | Binop (op, a, b) ->
      Option.bind (cfold a) (fun va ->
          Option.map
            (fun vb ->
              let b2i c = if c then 1 else 0 in
              match op with
              | `And -> b2i (va <> 0 && vb <> 0)
              | `Or -> b2i (va <> 0 || vb <> 0)
              | `Eq -> b2i (va = vb)
              | `Neq -> b2i (va <> vb)
              | `Lt -> b2i (va < vb)
              | `Le -> b2i (va <= vb)
              | `Gt -> b2i (va > vb)
              | `Ge -> b2i (va >= vb)
              | `Add -> va + vb
              | `Sub -> va - vb
              | `Mul -> va * vb)
            (cfold b))
    | Cond (c, t, f) ->
      Option.bind (cfold c) (fun vc -> if vc <> 0 then cfold t else cfold f)
  in
  let ty_bounds = function
    | Bool -> (0, 1)
    | Range (lo, hi) -> (lo, hi)
    | Enum names -> (0, Array.length names - 1)
  in
  let rec check_stmt assigned_here s =
    match s with
    | Assign (n, e, line) ->
      (match Hashtbl.find_opt var_tbl n with
       | Some d when d.d_state ->
         (match cfold e with
          | Some v ->
            let lo, hi = ty_bounds d.d_ty in
            if v < lo || v > hi then
              fail line "value %d out of range for %s" v n
          | None -> ())
       | Some _ -> fail line "cannot assign to choice %s" n
       | None -> fail line "unknown state variable %s" n);
      if List.mem n !assigned_here then
        fail line "%s assigned twice in one cycle" n;
      assigned_here := n :: !assigned_here;
      check_expr e
    | If (branches, dflt) ->
      List.iter
        (fun (c, b) ->
          check_expr c;
          let r = ref !assigned_here in
          List.iter (check_stmt r) b)
        branches;
      Option.iter
        (fun b ->
          let r = ref !assigned_here in
          List.iter (check_stmt r) b)
        dflt
  in
  let top_assigned = ref [] in
  List.iter (check_stmt top_assigned) body;
  List.iter (fun d -> Option.iter check_expr d.d_init) decls;
  let states = List.filter (fun d -> d.d_state) decls in
  let choices = List.filter (fun d -> not d.d_state) decls in
  let state_index = Hashtbl.create 16 and choice_index = Hashtbl.create 16 in
  List.iteri (fun i d -> Hashtbl.replace state_index d.d_name i) states;
  List.iteri (fun i d -> Hashtbl.replace choice_index d.d_name i) choices;
  (* Expression evaluation over actual values. *)
  let rec eval lookup e =
    match e with
    | Lit v -> v
    | Ref (n, line) ->
      (match lookup n with
       | Some v -> v
       | None ->
         (match Hashtbl.find_opt enum_tbl n with
          | Some v -> v
          | None -> fail line "unknown name %s" n))
    | Unop (`Not, e) -> if eval lookup e = 0 then 1 else 0
    | Unop (`Neg, e) -> -eval lookup e
    | Binop (op, a, b) ->
      let va = eval lookup a and vb = eval lookup b in
      let b2i c = if c then 1 else 0 in
      (match op with
       | `And -> b2i (va <> 0 && vb <> 0)
       | `Or -> b2i (va <> 0 || vb <> 0)
       | `Eq -> b2i (va = vb)
       | `Neq -> b2i (va <> vb)
       | `Lt -> b2i (va < vb)
       | `Le -> b2i (va <= vb)
       | `Gt -> b2i (va > vb)
       | `Ge -> b2i (va >= vb)
       | `Add -> va + vb
       | `Sub -> va - vb
       | `Mul -> va * vb)
    | Cond (c, t, f) ->
      if eval lookup c <> 0 then eval lookup t else eval lookup f
  in
  (* Resets. *)
  let reset =
    List.map
      (fun d ->
        let actual =
          match d.d_init with
          | None -> actual_of_index d.d_ty 0
          | Some e -> eval (fun _ -> None) e
        in
        let idx = index_of_actual d.d_ty actual in
        let card = Array.length (ty_values d.d_ty) in
        if idx < 0 || idx >= card then
          fail d.d_line "initial value of %s out of range" d.d_name;
        idx)
      states
  in
  List.iter
    (fun d ->
      if d.d_init <> None then
        fail d.d_line "choice %s cannot have an initial value" d.d_name)
    choices;
  let state_arr = Array.of_list states in
  let choice_arr = Array.of_list choices in
  (* Transition function, writing into a caller-provided buffer; the
     twice-assigned scratch is per-domain so enumeration can run the
     update block from several domains at once. *)
  let nstates = List.length states in
  let assigned_key = Domain.DLS.new_key (fun () -> Array.make nstates false) in
  let next_into st read out =
    Array.blit st 0 out 0 nstates;
    let assigned = Domain.DLS.get assigned_key in
    Array.fill assigned 0 nstates false;
    let lookup n =
      match Hashtbl.find_opt state_index n with
      | Some i -> Some (actual_of_index state_arr.(i).d_ty st.(i))
      | None ->
        (match Hashtbl.find_opt choice_index n with
         | Some i -> Some (actual_of_index choice_arr.(i).d_ty (read i))
         | None -> None)
    in
    let rec exec stmts =
      List.iter
        (fun s ->
          match s with
          | Assign (n, e, line) ->
            (match Hashtbl.find_opt state_index n with
             | None ->
               if Hashtbl.mem choice_index n then
                 fail line "cannot assign to choice %s" n
               else fail line "unknown state variable %s" n
             | Some i ->
               if assigned.(i) then
                 fail line "%s assigned twice in one cycle" n;
               let actual = eval lookup e in
               let idx = index_of_actual state_arr.(i).d_ty actual in
               let card = Array.length (ty_values state_arr.(i).d_ty) in
               if idx < 0 || idx >= card then
                 fail line "value %d out of range for %s" actual n;
               assigned.(i) <- true;
               out.(i) <- idx)
          | If (branches, dflt) ->
            let rec pick = function
              | [] -> (match dflt with Some b -> exec b | None -> ())
              | (c, b) :: rest ->
                if eval lookup c <> 0 then exec b else pick rest
            in
            pick branches)
        stmts
    in
    exec body
  in
  let next st ch =
    let out = Array.make nstates 0 in
    next_into st (Array.get ch) out;
    out
  in
  Model.create ~name ~next_into
    ~state_vars:
      (List.map (fun d -> Model.var d.d_name (ty_values d.d_ty)) states)
    ~choice_vars:
      (List.map (fun d -> Model.var d.d_name (ty_values d.d_ty)) choices)
    ~reset ~next ()

(* ------------------------------------------------------------------ *)
(* Guard lint                                                         *)
(* ------------------------------------------------------------------ *)

(* Static checks over the if/elsif chains of the update block, without
   building the transition function: duplicate guards and guards after
   a constant-true guard can never fire (the first matching branch
   wins); constant-false guards are dead outright.  Findings are
   (line, rule, message) triples so the analysis layer can dress them
   uniformly. *)
let lint src : (int * string * string) list =
  let _, decls, body = parse_file src in
  let var_tbl = Hashtbl.create 16 and enum_tbl = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Hashtbl.replace var_tbl d.d_name ();
      match d.d_ty with
      | Enum names ->
        Array.iteri (fun i l -> Hashtbl.replace enum_tbl l i) names
      | Bool | Range _ -> ())
    decls;
  let rec cfold e =
    match e with
    | Lit v -> Some v
    | Ref (n, _) ->
      if Hashtbl.mem var_tbl n then None else Hashtbl.find_opt enum_tbl n
    | Unop (op, e) ->
      Option.map
        (fun v -> match op with `Not -> (if v = 0 then 1 else 0) | `Neg -> -v)
        (cfold e)
    | Binop (op, a, b) ->
      Option.bind (cfold a) (fun va ->
          Option.map
            (fun vb ->
              let b2i c = if c then 1 else 0 in
              match op with
              | `And -> b2i (va <> 0 && vb <> 0)
              | `Or -> b2i (va <> 0 || vb <> 0)
              | `Eq -> b2i (va = vb)
              | `Neq -> b2i (va <> vb)
              | `Lt -> b2i (va < vb)
              | `Le -> b2i (va <= vb)
              | `Gt -> b2i (va > vb)
              | `Ge -> b2i (va >= vb)
              | `Add -> va + vb
              | `Sub -> va - vb
              | `Mul -> va * vb)
            (cfold b))
    | Cond (c, t, f) ->
      Option.bind (cfold c) (fun vc -> if vc <> 0 then cfold t else cfold f)
  in
  let rec expr_line = function
    | Ref (_, l) -> l
    | Lit _ -> 0
    | Unop (_, e) -> expr_line e
    | Binop (_, a, b) ->
      let l = expr_line a in
      if l > 0 then l else expr_line b
    | Cond (c, t, f) ->
      let l = expr_line c in
      if l > 0 then l
      else
        let l = expr_line t in
        if l > 0 then l else expr_line f
  in
  (* Structural guard identity modulo source position. *)
  let rec strip = function
    | Lit v -> Lit v
    | Ref (n, _) -> Ref (n, 0)
    | Unop (o, e) -> Unop (o, strip e)
    | Binop (o, a, b) -> Binop (o, strip a, strip b)
    | Cond (c, t, f) -> Cond (strip c, strip t, strip f)
  in
  let out = ref [] in
  let add line rule msg = out := (line, rule, msg) :: !out in
  let rec walk s =
    match s with
    | Assign _ -> ()
    | If (branches, dflt) ->
      let n = List.length branches in
      let seen = ref [] in
      let shadowed = ref false in
      List.iteri
        (fun i (c, b) ->
          let line = expr_line c in
          if !shadowed then
            add line "fsm-shadowed-guard"
              "guard can never fire: an earlier guard of this chain is \
               constant true"
          else begin
            let key = strip c in
            if List.mem key !seen then
              add line "fsm-shadowed-guard"
                "guard duplicates an earlier guard of this chain and can \
                 never fire"
            else seen := key :: !seen;
            match cfold c with
            | Some 0 ->
              add line "fsm-dead-guard"
                "guard is constant false: this branch never fires"
            | Some _ ->
              shadowed := true;
              if i < n - 1 || dflt <> None then
                add line "fsm-dead-guard"
                  "guard is constant true: the rest of this chain never \
                   fires"
            | None -> ()
          end;
          List.iter walk b)
        branches;
      Option.iter (List.iter walk) dflt
  in
  List.iter walk body;
  List.rev !out
