type loc = { line : int; col : int }

let pp_loc ppf { line; col } = Format.fprintf ppf "%d:%d" line col
let no_loc = { line = 0; col = 0 }

type unop = Not | Bnot | Uand | Uor | Uxor | Neg

type binop =
  | Add | Sub | Mul
  | Band | Bor | Bxor
  | Land | Lor
  | Eq | Neq | Ceq | Cneq
  | Lt | Le | Gt | Ge
  | Shl | Shr

type expr =
  | Literal of Avp_logic.Bv.t
  | Ident of string
  | Index of string * expr
  | Range of string * int * int
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr
  | Concat of expr list
  | Repeat of int * expr

type lvalue =
  | Lident of string
  | Lindex of string * expr
  | Lrange of string * int * int
  | Lconcat of lvalue list

type stmt =
  | Block of stmt list
  | Blocking of lvalue * expr * loc
  | Nonblocking of lvalue * expr * loc
  | If of expr * stmt * stmt option
  | Case of expr * (expr list * stmt) list * stmt option
  | Nop

type edge = Posedge | Negedge

type sensitivity = Comb | Edges of (edge * string) list

type net_kind = Wire | Reg

type range = { msb : int; lsb : int }

let range_width = function
  | None -> 1
  | Some { msb; lsb } -> abs (msb - lsb) + 1

type direction = Input | Output | Inout

type decl = {
  d_kind : net_kind;
  d_range : range option;
  d_names : string list;
  d_attrs : string list;
  d_loc : loc;
}

type item =
  | Port_decl of direction * range option * string list * loc
  | Net_decl of decl
  | Assign of lvalue * expr * loc
  | Always of sensitivity * stmt * loc
  | Instance of {
      i_module : string;
      i_name : string;
      i_conns : (string option * expr) list;
      i_loc : loc;
    }
  | Directive of string * loc
  | Initial of stmt * loc

type module_decl = {
  m_name : string;
  m_ports : string list;
  m_items : item list;
  m_loc : loc;
}

type design = module_decl list

let unop_str = function
  | Not -> "!" | Bnot -> "~" | Uand -> "&" | Uor -> "|" | Uxor -> "^"
  | Neg -> "-"

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*"
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Land -> "&&" | Lor -> "||"
  | Eq -> "==" | Neq -> "!=" | Ceq -> "===" | Cneq -> "!=="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Shl -> "<<" | Shr -> ">>"

let rec pp_expr ppf = function
  | Literal v ->
    Format.fprintf ppf "%d'b%s" (Avp_logic.Bv.width v)
      (Avp_logic.Bv.to_string v)
  | Ident s -> Format.pp_print_string ppf s
  | Index (s, e) -> Format.fprintf ppf "%s[%a]" s pp_expr e
  | Range (s, hi, lo) -> Format.fprintf ppf "%s[%d:%d]" s hi lo
  | Unop (op, e) -> Format.fprintf ppf "(%s%a)" (unop_str op) pp_expr e
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Ternary (c, a, b) ->
    Format.fprintf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b
  | Concat es ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_expr)
      es
  | Repeat (n, e) -> Format.fprintf ppf "{%d{%a}}" n pp_expr e

let rec pp_lvalue ppf = function
  | Lident s -> Format.pp_print_string ppf s
  | Lindex (s, e) -> Format.fprintf ppf "%s[%a]" s pp_expr e
  | Lrange (s, hi, lo) -> Format.fprintf ppf "%s[%d:%d]" s hi lo
  | Lconcat ls ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_lvalue)
      ls

let rec pp_stmt ppf = function
  | Block stmts ->
    Format.fprintf ppf "@[<v 2>begin@,%a@]@,end"
      (Format.pp_print_list pp_stmt) stmts
  | Blocking (l, e, _) -> Format.fprintf ppf "%a = %a;" pp_lvalue l pp_expr e
  | Nonblocking (l, e, _) ->
    Format.fprintf ppf "%a <= %a;" pp_lvalue l pp_expr e
  | If (c, t, None) ->
    Format.fprintf ppf "@[<v 2>if (%a)@,%a@]" pp_expr c pp_stmt t
  | If (c, t, Some e) ->
    Format.fprintf ppf "@[<v 2>if (%a)@,%a@]@,@[<v 2>else@,%a@]" pp_expr c
      pp_stmt t pp_stmt e
  | Case (sel, items, dflt) ->
    let pp_item ppf (labels, body) =
      Format.fprintf ppf "@[<v 2>%a:@,%a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_expr)
        labels pp_stmt body
    in
    Format.fprintf ppf "@[<v 2>case (%a)@,%a" pp_expr sel
      (Format.pp_print_list pp_item) items;
    (match dflt with
     | None -> ()
     | Some d -> Format.fprintf ppf "@,@[<v 2>default:@,%a@]" pp_stmt d);
    Format.fprintf ppf "@]@,endcase"
  | Nop -> Format.pp_print_string ppf ";"

let pp_range ppf = function
  | None -> ()
  | Some { msb; lsb } -> Format.fprintf ppf "[%d:%d] " msb lsb

let pp_names ppf names =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Format.pp_print_string ppf names

let pp_item ppf = function
  | Port_decl (dir, r, names, _) ->
    let d =
      match dir with Input -> "input" | Output -> "output" | Inout -> "inout"
    in
    Format.fprintf ppf "%s %a%a;" d pp_range r pp_names names
  | Net_decl { d_kind; d_range; d_names; d_attrs; _ } ->
    let k = match d_kind with Wire -> "wire" | Reg -> "reg" in
    Format.fprintf ppf "%s %a%a;" k pp_range d_range pp_names d_names;
    List.iter (fun a -> Format.fprintf ppf " // avp %s" a) d_attrs
  | Assign (l, e, _) ->
    Format.fprintf ppf "assign %a = %a;" pp_lvalue l pp_expr e
  | Always (sens, body, _) ->
    let pp_sens ppf = function
      | Comb -> Format.pp_print_string ppf "@(*)"
      | Edges es ->
        let pp_edge ppf (e, s) =
          Format.fprintf ppf "%s %s"
            (match e with Posedge -> "posedge" | Negedge -> "negedge")
            s
        in
        Format.fprintf ppf "@(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " or ")
             pp_edge)
          es
    in
    Format.fprintf ppf "@[<v 2>always %a@,%a@]" pp_sens sens pp_stmt body
  | Instance { i_module; i_name; i_conns; _ } ->
    let pp_conn ppf = function
      | Some p, e -> Format.fprintf ppf ".%s(%a)" p pp_expr e
      | None, e -> pp_expr ppf e
    in
    Format.fprintf ppf "%s %s (%a);" i_module i_name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_conn)
      i_conns
  | Directive (s, _) -> Format.fprintf ppf "// avp %s" s
  | Initial (body, _) ->
    Format.fprintf ppf "@[<v 2>initial@,%a@]" pp_stmt body

let pp_module ppf m =
  Format.fprintf ppf "@[<v 2>module %s (%a);@,%a@]@,endmodule" m.m_name
    pp_names m.m_ports
    (Format.pp_print_list pp_item)
    m.m_items

let pp_design ppf d =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
    pp_module ppf d

let find_module design name =
  List.find_opt (fun m -> String.equal m.m_name name) design

let equal_design (a : design) (b : design) = a = b

let dedup names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    names

let rec lvalue_targets = function
  | Lident s -> [ s ]
  | Lindex (s, _) -> [ s ]
  | Lrange (s, _, _) -> [ s ]
  | Lconcat ls -> dedup (List.concat_map lvalue_targets ls)

let rec stmt_writes_acc acc = function
  | Block stmts -> List.fold_left stmt_writes_acc acc stmts
  | Blocking (l, _, _) | Nonblocking (l, _, _) ->
    List.rev_append (lvalue_targets l) acc
  | If (_, t, e) ->
    let acc = stmt_writes_acc acc t in
    (match e with None -> acc | Some s -> stmt_writes_acc acc s)
  | Case (_, items, dflt) ->
    let acc =
      List.fold_left (fun acc (_, body) -> stmt_writes_acc acc body) acc items
    in
    (match dflt with None -> acc | Some s -> stmt_writes_acc acc s)
  | Nop -> acc

let stmt_writes s = dedup (List.rev (stmt_writes_acc [] s))
