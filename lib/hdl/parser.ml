exception Error of string * Ast.loc

let fail msg loc = raise (Error (msg, loc))

type state = {
  toks : Lexer.t array;
  mutable cursor : int;
  params : (string, Avp_logic.Bv.t) Hashtbl.t;
      (* parameter constants of the module being parsed, substituted
         into expressions as they are read *)
}

(* Evaluate a closed constant expression (parameters have already been
   substituted, so only literals and operators remain). *)
let rec const_eval (e : Ast.expr) : Avp_logic.Bv.t option =
  let open Avp_logic in
  let bit b = Some (Bv.of_bits [ b ]) in
  match e with
  | Ast.Literal v -> Some v
  | Ast.Ident _ | Ast.Index _ | Ast.Range _ -> None
  | Ast.Unop (op, e) ->
    Option.bind (const_eval e) (fun v ->
        match op with
        | Ast.Not ->
          Option.map (fun b -> Bv.of_bits [ Bit.of_bool (not b) ])
            (Bv.to_bool v)
        | Ast.Bnot -> Some (Bv.lognot v)
        | Ast.Uand -> bit (Bv.reduce_and v)
        | Ast.Uor -> bit (Bv.reduce_or v)
        | Ast.Uxor -> bit (Bv.reduce_xor v)
        | Ast.Neg -> Some (Bv.neg v))
  | Ast.Binop (op, a, b) ->
    Option.bind (const_eval a) (fun va ->
        Option.bind (const_eval b) (fun vb ->
            match op with
            | Ast.Add -> Some (Bv.add va vb)
            | Ast.Sub -> Some (Bv.sub va vb)
            | Ast.Mul -> Some (Bv.mul va vb)
            | Ast.Band -> Some (Bv.logand va vb)
            | Ast.Bor -> Some (Bv.logor va vb)
            | Ast.Bxor -> Some (Bv.logxor va vb)
            | Ast.Land | Ast.Lor ->
              Option.bind (Bv.to_bool va) (fun x ->
                  Option.map
                    (fun y ->
                      Bv.of_bits
                        [ Bit.of_bool
                            (if op = Ast.Land then x && y else x || y) ])
                    (Bv.to_bool vb))
            | Ast.Eq -> bit (Bv.eq va vb)
            | Ast.Neq -> bit (Bv.neq va vb)
            | Ast.Ceq -> bit (Bv.case_eq va vb)
            | Ast.Cneq -> bit (Bit.lognot (Bv.case_eq va vb))
            | Ast.Lt -> bit (Bv.lt va vb)
            | Ast.Le -> bit (Bv.le va vb)
            | Ast.Gt -> bit (Bv.gt va vb)
            | Ast.Ge -> bit (Bv.ge va vb)
            | Ast.Shl -> Some (Bv.shift_left va vb)
            | Ast.Shr -> Some (Bv.shift_right va vb)))
  | Ast.Ternary (c, a, b) ->
    Option.bind (const_eval c) (fun vc ->
        match Bv.to_bool vc with
        | Some true -> const_eval a
        | Some false -> const_eval b
        | None -> None)
  | Ast.Concat es ->
    (match es with
     | [] -> None
     | first :: rest ->
       List.fold_left
         (fun acc e ->
           Option.bind acc (fun hi ->
               Option.map (fun lo -> Bv.concat hi lo) (const_eval e)))
         (const_eval first) rest)
  | Ast.Repeat (n, e) -> Option.map (Bv.repeat n) (const_eval e)

let const_int st_loc what e =
  match Option.bind (const_eval e) Avp_logic.Bv.to_int with
  | Some n -> n
  | None -> fail (Printf.sprintf "%s must be a constant expression" what)
              st_loc

let current st = st.toks.(st.cursor)
let peek_tok st = (current st).tok
let peek_loc st = (current st).loc

let advance st =
  if st.cursor < Array.length st.toks - 1 then st.cursor <- st.cursor + 1

let expect st tok =
  if peek_tok st = tok then advance st
  else
    fail
      (Format.asprintf "expected %a but found %a" Lexer.pp_token tok
         Lexer.pp_token (peek_tok st))
      (peek_loc st)

let expect_ident st =
  match peek_tok st with
  | Lexer.Ident s ->
    advance st;
    s
  | t ->
    fail
      (Format.asprintf "expected identifier but found %a" Lexer.pp_token t)
      (peek_loc st)

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_primary st : Ast.expr =
  match peek_tok st with
  | Lexer.Sized v ->
    advance st;
    Ast.Literal v
  | Lexer.Int n ->
    advance st;
    Ast.Literal (Avp_logic.Bv.of_int ~width:32 n)
  | Lexer.Ident name ->
    advance st;
    if peek_tok st = Lexer.Lbracket then begin
      advance st;
      parse_index_or_range st name
    end
    else begin
      match Hashtbl.find_opt st.params name with
      | Some v -> Ast.Literal v
      | None -> Ast.Ident name
    end
  | Lexer.Lparen ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.Rparen;
    e
  | Lexer.Lbrace ->
    advance st;
    parse_concat_or_repeat st
  | t ->
    fail
      (Format.asprintf "expected expression but found %a" Lexer.pp_token t)
      (peek_loc st)

and parse_index_or_range st name =
  (* The opening bracket has been consumed. *)
  let loc = peek_loc st in
  let first = parse_expr st in
  if peek_tok st = Lexer.Colon then begin
    advance st;
    let second = parse_expr st in
    expect st Lexer.Rbracket;
    Ast.Range
      (name, const_int loc "range bound" first,
       const_int loc "range bound" second)
  end
  else begin
    expect st Lexer.Rbracket;
    Ast.Index (name, first)
  end

and parse_concat_or_repeat st =
  (* The opening brace has been consumed: either {count{expr}} or a
     concatenation. *)
  let loc = peek_loc st in
  let first = parse_expr st in
  if peek_tok st = Lexer.Lbrace then begin
    advance st;
    let e = parse_expr st in
    expect st Lexer.Rbrace;
    expect st Lexer.Rbrace;
    Ast.Repeat (const_int loc "replication count" first, e)
  end
  else begin
    let rec loop acc =
      if peek_tok st = Lexer.Comma then begin
        advance st;
        loop (parse_expr st :: acc)
      end
      else begin
        expect st Lexer.Rbrace;
        List.rev acc
      end
    in
    match loop [ first ] with [ e ] -> e | es -> Ast.Concat es
  end

and parse_unary st =
  match peek_tok st with
  | Lexer.Bang ->
    advance st;
    Ast.Unop (Ast.Not, parse_unary st)
  | Lexer.Tilde ->
    advance st;
    Ast.Unop (Ast.Bnot, parse_unary st)
  | Lexer.Amp ->
    advance st;
    Ast.Unop (Ast.Uand, parse_unary st)
  | Lexer.Pipe ->
    advance st;
    Ast.Unop (Ast.Uor, parse_unary st)
  | Lexer.Caret ->
    advance st;
    Ast.Unop (Ast.Uxor, parse_unary st)
  | Lexer.Minus ->
    advance st;
    Ast.Unop (Ast.Neg, parse_unary st)
  | _ -> parse_primary st

(* Binary operator precedence climbing.  Higher binds tighter. *)
and binop_of_token = function
  | Lexer.Star -> Some (Ast.Mul, 10)
  | Lexer.Plus -> Some (Ast.Add, 9)
  | Lexer.Minus -> Some (Ast.Sub, 9)
  | Lexer.Shl -> Some (Ast.Shl, 8)
  | Lexer.Shr -> Some (Ast.Shr, 8)
  | Lexer.Lt -> Some (Ast.Lt, 7)
  | Lexer.Le_or_nonblocking -> Some (Ast.Le, 7)
  | Lexer.Gt -> Some (Ast.Gt, 7)
  | Lexer.Ge -> Some (Ast.Ge, 7)
  | Lexer.Eq -> Some (Ast.Eq, 6)
  | Lexer.Neq -> Some (Ast.Neq, 6)
  | Lexer.Ceq -> Some (Ast.Ceq, 6)
  | Lexer.Cneq -> Some (Ast.Cneq, 6)
  | Lexer.Amp -> Some (Ast.Band, 5)
  | Lexer.Caret -> Some (Ast.Bxor, 4)
  | Lexer.Pipe -> Some (Ast.Bor, 3)
  | Lexer.Andand -> Some (Ast.Land, 2)
  | Lexer.Oror -> Some (Ast.Lor, 1)
  | _ -> None

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (peek_tok st) with
    | Some (op, prec) when prec >= min_prec ->
      advance st;
      let rhs = parse_binary st (prec + 1) in
      loop (Ast.Binop (op, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_expr st =
  let cond = parse_binary st 1 in
  if peek_tok st = Lexer.Question then begin
    advance st;
    let t = parse_expr st in
    expect st Lexer.Colon;
    let f = parse_expr st in
    Ast.Ternary (cond, t, f)
  end
  else cond

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_lvalue st : Ast.lvalue =
  match peek_tok st with
  | Lexer.Ident name ->
    advance st;
    if peek_tok st = Lexer.Lbracket then begin
      advance st;
      let loc = peek_loc st in
      let first = parse_expr st in
      if peek_tok st = Lexer.Colon then begin
        advance st;
        let second = parse_expr st in
        expect st Lexer.Rbracket;
        Ast.Lrange
          (name, const_int loc "range bound" first,
           const_int loc "range bound" second)
      end
      else begin
        expect st Lexer.Rbracket;
        Ast.Lindex (name, first)
      end
    end
    else Ast.Lident name
  | Lexer.Lbrace ->
    advance st;
    let rec loop acc =
      let l = parse_lvalue st in
      if peek_tok st = Lexer.Comma then begin
        advance st;
        loop (l :: acc)
      end
      else begin
        expect st Lexer.Rbrace;
        List.rev (l :: acc)
      end
    in
    Ast.Lconcat (loop [])
  | t ->
    fail
      (Format.asprintf "expected lvalue but found %a" Lexer.pp_token t)
      (peek_loc st)

let skip_delay st =
  if peek_tok st = Lexer.Hash then begin
    advance st;
    match peek_tok st with
    | Lexer.Int _ ->
      advance st
    | t ->
      fail
        (Format.asprintf "expected delay value but found %a" Lexer.pp_token t)
        (peek_loc st)
  end

let rec parse_stmt st : Ast.stmt =
  match peek_tok st with
  | Lexer.Semi ->
    advance st;
    Ast.Nop
  | Lexer.Begin ->
    advance st;
    let rec loop acc =
      if peek_tok st = Lexer.End then begin
        advance st;
        List.rev acc
      end
      else loop (parse_stmt st :: acc)
    in
    Ast.Block (loop [])
  | Lexer.If ->
    advance st;
    expect st Lexer.Lparen;
    let cond = parse_expr st in
    expect st Lexer.Rparen;
    let then_s = parse_stmt st in
    if peek_tok st = Lexer.Else then begin
      advance st;
      let else_s = parse_stmt st in
      Ast.If (cond, then_s, Some else_s)
    end
    else Ast.If (cond, then_s, None)
  | Lexer.Case | Lexer.Casex ->
    advance st;
    expect st Lexer.Lparen;
    let sel = parse_expr st in
    expect st Lexer.Rparen;
    let items = ref [] in
    let default = ref None in
    let rec loop () =
      match peek_tok st with
      | Lexer.Endcase -> advance st
      | Lexer.Default ->
        advance st;
        if peek_tok st = Lexer.Colon then advance st;
        default := Some (parse_stmt st);
        loop ()
      | _ ->
        let rec labels acc =
          let e = parse_expr st in
          if peek_tok st = Lexer.Comma then begin
            advance st;
            labels (e :: acc)
          end
          else begin
            expect st Lexer.Colon;
            List.rev (e :: acc)
          end
        in
        let ls = labels [] in
        let body = parse_stmt st in
        items := (ls, body) :: !items;
        loop ()
    in
    loop ();
    Ast.Case (sel, List.rev !items, !default)
  | Lexer.Directive _ ->
    (* Directives inside processes are informational; skip. *)
    advance st;
    parse_stmt st
  | _ ->
    let loc = peek_loc st in
    let lv = parse_lvalue st in
    (match peek_tok st with
     | Lexer.Eq_assign ->
       advance st;
       skip_delay st;
       let e = parse_expr st in
       expect st Lexer.Semi;
       Ast.Blocking (lv, e, loc)
     | Lexer.Le_or_nonblocking ->
       advance st;
       skip_delay st;
       let e = parse_expr st in
       expect st Lexer.Semi;
       Ast.Nonblocking (lv, e, loc)
     | t ->
       fail
         (Format.asprintf "expected assignment but found %a" Lexer.pp_token t)
         (peek_loc st))

(* ------------------------------------------------------------------ *)
(* Items and modules                                                  *)
(* ------------------------------------------------------------------ *)

let parse_range st : Ast.range option =
  if peek_tok st = Lexer.Lbracket then begin
    advance st;
    let loc = peek_loc st in
    let msb = const_int loc "range bound" (parse_expr st) in
    expect st Lexer.Colon;
    let lsb = const_int loc "range bound" (parse_expr st) in
    expect st Lexer.Rbracket;
    Some { Ast.msb; lsb }
  end
  else None

let parse_name_list st =
  let rec loop acc =
    let n = expect_ident st in
    if peek_tok st = Lexer.Comma then begin
      advance st;
      loop (n :: acc)
    end
    else List.rev (n :: acc)
  in
  loop []

(* Collect avp directives that start on the same line as [line] and
   attach them as attributes. *)
let gather_line_attrs st line =
  let rec loop acc =
    match peek_tok st with
    | Lexer.Directive payload when (peek_loc st).Ast.line = line ->
      advance st;
      loop (payload :: acc)
    | _ -> List.rev acc
  in
  loop []

let parse_sensitivity st : Ast.sensitivity =
  expect st Lexer.At;
  expect st Lexer.Lparen;
  match peek_tok st with
  | Lexer.Star ->
    advance st;
    expect st Lexer.Rparen;
    Ast.Comb
  | Lexer.Posedge | Lexer.Negedge ->
    let rec loop acc =
      let edge =
        match peek_tok st with
        | Lexer.Posedge ->
          advance st;
          Ast.Posedge
        | Lexer.Negedge ->
          advance st;
          Ast.Negedge
        | t ->
          fail
            (Format.asprintf "expected edge but found %a" Lexer.pp_token t)
            (peek_loc st)
      in
      let sig_ = expect_ident st in
      if peek_tok st = Lexer.Or_kw || peek_tok st = Lexer.Comma then begin
        advance st;
        loop ((edge, sig_) :: acc)
      end
      else begin
        expect st Lexer.Rparen;
        List.rev ((edge, sig_) :: acc)
      end
    in
    Ast.Edges (loop [])
  | _ ->
    (* Level-sensitive list: treated as combinational. *)
    let rec loop () =
      ignore (expect_ident st);
      if peek_tok st = Lexer.Or_kw || peek_tok st = Lexer.Comma then begin
        advance st;
        loop ()
      end
      else expect st Lexer.Rparen
    in
    loop ();
    Ast.Comb

let parse_instance st i_module i_loc =
  let i_name = expect_ident st in
  expect st Lexer.Lparen;
  let parse_conn () =
    if peek_tok st = Lexer.Dot then begin
      advance st;
      let port = expect_ident st in
      expect st Lexer.Lparen;
      let e = parse_expr st in
      expect st Lexer.Rparen;
      (Some port, e)
    end
    else (None, parse_expr st)
  in
  let rec loop acc =
    if peek_tok st = Lexer.Rparen then begin
      advance st;
      List.rev acc
    end
    else begin
      let c = parse_conn () in
      if peek_tok st = Lexer.Comma then begin
        advance st;
        loop (c :: acc)
      end
      else begin
        expect st Lexer.Rparen;
        List.rev (c :: acc)
      end
    end
  in
  let conns = loop [] in
  expect st Lexer.Semi;
  Ast.Instance { i_module; i_name; i_conns = conns; i_loc }

let parse_item st : Ast.item list =
  let loc = peek_loc st in
  match peek_tok st with
  | Lexer.Input | Lexer.Output | Lexer.Inout ->
    let dir =
      match peek_tok st with
      | Lexer.Input -> Ast.Input
      | Lexer.Output -> Ast.Output
      | _ -> Ast.Inout
    in
    advance st;
    (* "output reg" shorthand yields both a port and a reg decl. *)
    let is_reg = peek_tok st = Lexer.Reg in
    if is_reg then advance st;
    let r = parse_range st in
    let names = parse_name_list st in
    expect st Lexer.Semi;
    let port = Ast.Port_decl (dir, r, names, loc) in
    let attrs = gather_line_attrs st loc.Ast.line in
    if is_reg then
      [ port;
        Ast.Net_decl
          { d_kind = Ast.Reg; d_range = r; d_names = names;
            d_attrs = attrs; d_loc = loc } ]
    else if attrs <> [] then
      (* Attributes on a plain port line still need a carrier. *)
      [ port;
        Ast.Net_decl
          { d_kind = Ast.Wire; d_range = r; d_names = names;
            d_attrs = attrs; d_loc = loc } ]
    else [ port ]
  | Lexer.Wire | Lexer.Reg ->
    let kind = if peek_tok st = Lexer.Wire then Ast.Wire else Ast.Reg in
    advance st;
    let r = parse_range st in
    let names = parse_name_list st in
    expect st Lexer.Semi;
    let attrs = gather_line_attrs st loc.Ast.line in
    [ Ast.Net_decl
        { d_kind = kind; d_range = r; d_names = names; d_attrs = attrs;
          d_loc = loc } ]
  | Lexer.Assign ->
    advance st;
    let lv = parse_lvalue st in
    expect st Lexer.Eq_assign;
    skip_delay st;
    let e = parse_expr st in
    expect st Lexer.Semi;
    [ Ast.Assign (lv, e, loc) ]
  | Lexer.Always ->
    advance st;
    let sens = parse_sensitivity st in
    let body = parse_stmt st in
    [ Ast.Always (sens, body, loc) ]
  | Lexer.Initial ->
    advance st;
    let body = parse_stmt st in
    [ Ast.Initial (body, loc) ]
  | Lexer.Parameter ->
    advance st;
    (* parameter NAME = const_expr (, NAME = const_expr)* ; — values
       are folded into the token stream as literals; no AST item. *)
    let rec bindings () =
      let name = expect_ident st in
      expect st Lexer.Eq_assign;
      let e = parse_expr st in
      (match const_eval e with
       | Some v -> Hashtbl.replace st.params name v
       | None -> fail "parameter value must be constant" loc);
      if peek_tok st = Lexer.Comma then begin
        advance st;
        bindings ()
      end
      else expect st Lexer.Semi
    in
    bindings ();
    []
  | Lexer.Directive payload ->
    advance st;
    [ Ast.Directive (payload, loc) ]
  | Lexer.Ident name ->
    advance st;
    [ parse_instance st name loc ]
  | t ->
    fail
      (Format.asprintf "unexpected token %a in module body" Lexer.pp_token t)
      loc

let parse_module st : Ast.module_decl =
  Hashtbl.reset st.params;
  let m_loc = peek_loc st in
  expect st Lexer.Module;
  let m_name = expect_ident st in
  let m_ports =
    if peek_tok st = Lexer.Lparen then begin
      advance st;
      if peek_tok st = Lexer.Rparen then begin
        advance st;
        []
      end
      else begin
        (match peek_tok st with
         | Lexer.Input | Lexer.Output | Lexer.Inout ->
           fail
             "ANSI-style port declarations are not supported; list port \
              names in the header and declare them in the body"
             (peek_loc st)
         | _ -> ());
        let names = parse_name_list st in
        expect st Lexer.Rparen;
        names
      end
    end
    else []
  in
  expect st Lexer.Semi;
  let rec items acc =
    if peek_tok st = Lexer.Endmodule then begin
      advance st;
      List.rev acc
    end
    else items (List.rev_append (parse_item st) acc)
  in
  let m_items = items [] in
  { Ast.m_name; m_ports; m_items; m_loc }

let parse src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; cursor = 0; params = Hashtbl.create 8 } in
  let rec loop acc =
    match peek_tok st with
    | Lexer.Eof -> List.rev acc
    | Lexer.Directive _ ->
      advance st;
      loop acc
    | _ -> loop (parse_module st :: acc)
  in
  loop []

let parse_module_exn src =
  match parse src with
  | [ m ] -> m
  | ms ->
    fail
      (Printf.sprintf "expected exactly one module, found %d" (List.length ms))
      Ast.no_loc
