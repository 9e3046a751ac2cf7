type uid = int

type enet = {
  id : uid;
  name : string;
  width : int;
  kind : Ast.net_kind;
  attrs : string list;
  loc : Ast.loc;
}

type eexpr =
  | Const of Avp_logic.Bv.t
  | Net of uid
  | Index of uid * eexpr
  | Range of uid * int * int
  | Unop of Ast.unop * eexpr
  | Binop of Ast.binop * eexpr * eexpr
  | Ternary of eexpr * eexpr * eexpr
  | Concat of eexpr list
  | Repeat of int * eexpr

type elv =
  | Lnet of uid
  | Lindex of uid * eexpr
  | Lrange of uid * int * int
  | Lconcat of elv list

type estmt =
  | Block of estmt list
  | Blocking of elv * eexpr
  | Nonblocking of elv * eexpr
  | If of eexpr * estmt * estmt option
  | Case of eexpr * (eexpr list * estmt) list * estmt option
  | Nop

type process =
  | Assign of elv * eexpr
  | Comb of estmt
  | Seq of (Ast.edge * uid) list * estmt

type t = {
  nets : enet array;
  processes : process array;
  control : bool array;  (* parallel to [processes] *)
  by_name : (string, uid) Hashtbl.t;
  top : string;
  directives : string list;
  top_inputs : bool array;  (* net id -> top-level input/inout port *)
  process_locs : Ast.loc array;  (* parallel to [processes] *)
  write_sites : (uid * bool * Ast.loc) list array;
      (* parallel to [processes]: (net, nonblocking?, assignment
         position) for every static assignment site, in source order *)
}

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Builder state                                                      *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable b_nets : enet list;  (* reverse order *)
  mutable b_count : int;
  b_by_name : (string, uid) Hashtbl.t;
  mutable b_processes :
    (process * bool * Ast.loc * (uid * bool * Ast.loc) list) list;
      (* with control flag, source position and write sites *)
  mutable b_directives : string list;  (* reverse order *)
  mutable b_in_control : bool;
}

let new_net b ~name ~width ~kind ~attrs ~loc =
  if Hashtbl.mem b.b_by_name name then
    fail "duplicate net declaration: %s" name;
  let n = { id = b.b_count; name; width; kind; attrs; loc } in
  b.b_nets <- n :: b.b_nets;
  b.b_count <- b.b_count + 1;
  Hashtbl.add b.b_by_name name n.id;
  n

let add_process b ~loc ?(sites = []) p =
  b.b_processes <- (p, b.b_in_control, loc, sites) :: b.b_processes

(* Per-instance scope: local net name -> (uid, declared lsb, width). *)
type scope = {
  prefix : string;
  table : (string, uid * int * int) Hashtbl.t;
}

let scope_lookup scope name =
  match Hashtbl.find_opt scope.table name with
  | Some entry -> entry
  | None when scope.prefix = "" -> fail "unknown identifier %s" name
  | None -> fail "unknown identifier %s in scope %s" name scope.prefix

(* ------------------------------------------------------------------ *)
(* Expression and statement resolution                                *)
(* ------------------------------------------------------------------ *)

let rec resolve_expr scope (e : Ast.expr) : eexpr =
  match e with
  | Ast.Literal v -> Const v
  | Ast.Ident name ->
    let id, _, _ = scope_lookup scope name in
    Net id
  | Ast.Index (name, idx) ->
    let id, lsb, _ = scope_lookup scope name in
    let idx = resolve_expr scope idx in
    let idx =
      if lsb = 0 then idx
      else
        Binop
          (Ast.Sub, idx, Const (Avp_logic.Bv.of_int ~width:32 lsb))
    in
    Index (id, idx)
  | Ast.Range (name, hi, lo) ->
    let id, lsb, width = scope_lookup scope name in
    let hi = hi - lsb and lo = lo - lsb in
    if lo < 0 || hi < lo || hi >= width then
      fail "range [%d:%d] out of bounds for %s" hi lo name;
    Range (id, hi, lo)
  | Ast.Unop (op, e) -> Unop (op, resolve_expr scope e)
  | Ast.Binop (op, a, b) ->
    Binop (op, resolve_expr scope a, resolve_expr scope b)
  | Ast.Ternary (c, a, b) ->
    Ternary (resolve_expr scope c, resolve_expr scope a, resolve_expr scope b)
  | Ast.Concat es -> Concat (List.map (resolve_expr scope) es)
  | Ast.Repeat (n, e) -> Repeat (n, resolve_expr scope e)

let rec resolve_lv scope (lv : Ast.lvalue) : elv =
  match lv with
  | Ast.Lident name ->
    let id, _, _ = scope_lookup scope name in
    Lnet id
  | Ast.Lindex (name, idx) ->
    let id, lsb, _ = scope_lookup scope name in
    let idx = resolve_expr scope idx in
    let idx =
      if lsb = 0 then idx
      else Binop (Ast.Sub, idx, Const (Avp_logic.Bv.of_int ~width:32 lsb))
    in
    Lindex (id, idx)
  | Ast.Lrange (name, hi, lo) ->
    let id, lsb, width = scope_lookup scope name in
    let hi = hi - lsb and lo = lo - lsb in
    if lo < 0 || hi < lo || hi >= width then
      fail "range [%d:%d] out of bounds for %s" hi lo name;
    Lrange (id, hi, lo)
  | Ast.Lconcat ls -> Lconcat (List.map (resolve_lv scope) ls)

let rec resolve_stmt scope (s : Ast.stmt) : estmt =
  match s with
  | Ast.Block ss -> Block (List.map (resolve_stmt scope) ss)
  | Ast.Blocking (lv, e, _) ->
    Blocking (resolve_lv scope lv, resolve_expr scope e)
  | Ast.Nonblocking (lv, e, _) ->
    Nonblocking (resolve_lv scope lv, resolve_expr scope e)
  | Ast.If (c, t, e) ->
    If
      ( resolve_expr scope c,
        resolve_stmt scope t,
        Option.map (resolve_stmt scope) e )
  | Ast.Case (sel, items, dflt) ->
    Case
      ( resolve_expr scope sel,
        List.map
          (fun (labels, body) ->
            (List.map (resolve_expr scope) labels, resolve_stmt scope body))
          items,
        Option.map (resolve_stmt scope) dflt )
  | Ast.Nop -> Nop

(* ------------------------------------------------------------------ *)
(* Module instantiation                                               *)
(* ------------------------------------------------------------------ *)

(* Static assignment sites of an Ast statement: which nets the
   process can write, blocking or nonblocking, and where each
   assignment sits in the source.  [resolve_stmt] drops the per-stmt
   positions; this keeps them for diagnostics (the scheduling-race
   pass reports both colliding sites). *)
let ast_lv_names (lv : Ast.lvalue) =
  let rec go acc = function
    | Ast.Lident n | Ast.Lindex (n, _) | Ast.Lrange (n, _, _) -> n :: acc
    | Ast.Lconcat ls -> List.fold_left go acc ls
  in
  List.rev (go [] lv)

let elv_write_nets (lv : elv) =
  let rec go acc = function
    | Lnet id | Lindex (id, _) | Lrange (id, _, _) -> id :: acc
    | Lconcat ls -> List.fold_left go acc ls
  in
  List.rev (go [] lv)

let stmt_sites scope (s : Ast.stmt) : (uid * bool * Ast.loc) list =
  let rec go acc = function
    | Ast.Block ss -> List.fold_left go acc ss
    | Ast.Blocking (lv, _, loc) ->
      List.fold_left
        (fun acc n ->
          let id, _, _ = scope_lookup scope n in
          (id, false, loc) :: acc)
        acc (ast_lv_names lv)
    | Ast.Nonblocking (lv, _, loc) ->
      List.fold_left
        (fun acc n ->
          let id, _, _ = scope_lookup scope n in
          (id, true, loc) :: acc)
        acc (ast_lv_names lv)
    | Ast.If (_, t, e) ->
      let acc = go acc t in
      (match e with None -> acc | Some s -> go acc s)
    | Ast.Case (_, items, dflt) ->
      let acc = List.fold_left (fun acc (_, body) -> go acc body) acc items in
      (match dflt with None -> acc | Some s -> go acc s)
    | Ast.Nop -> acc
  in
  List.rev (go [] s)

let decl_info (m : Ast.module_decl) =
  (* name -> (range, kind, attrs, loc); ports without a net decl
     default to wire with the port's range. *)
  let info = Hashtbl.create 16 in
  let dirs = Hashtbl.create 16 in
  List.iter
    (fun item ->
      match item with
      | Ast.Port_decl (dir, r, names, loc) ->
        List.iter
          (fun n ->
            Hashtbl.replace dirs n dir;
            if not (Hashtbl.mem info n) then
              Hashtbl.replace info n (r, Ast.Wire, [], loc))
          names
      | Ast.Net_decl { d_kind; d_range; d_names; d_attrs; d_loc } ->
        List.iter
          (fun n ->
            let r =
              match Hashtbl.find_opt info n with
              | Some (Some r, _, _, _) -> Some r
              | _ -> d_range
            in
            Hashtbl.replace info n (r, d_kind, d_attrs, d_loc))
          d_names
      | Ast.Assign _ | Ast.Always _ | Ast.Instance _ | Ast.Directive _
      | Ast.Initial _ -> ())
    m.Ast.m_items;
  (info, dirs)

let range_lsb = function None -> 0 | Some { Ast.msb = _; lsb } -> lsb

let check_range name = function
  | Some { Ast.msb; lsb } when msb < lsb ->
    fail "descending ranges only ([msb:lsb] with msb >= lsb): %s" name
  | _ -> ()

let rec instantiate b (design : Ast.design) (m : Ast.module_decl)
    ~(prefix : string)
    ~(port_aliases : (string * (uid * int * int)) list) : unit =
  let info, _dirs = decl_info m in
  let scope = { prefix; table = Hashtbl.create 32 } in
  (* Aliased ports first: they reuse the parent's net, but are also
     reachable under their hierarchical name. *)
  List.iter
    (fun (port, ((id, _, _) as entry)) ->
      Hashtbl.replace scope.table port entry;
      let full = if prefix = "" then port else prefix ^ "." ^ port in
      if not (Hashtbl.mem b.b_by_name full) then
        Hashtbl.add b.b_by_name full id)
    port_aliases;
  (* Declare all remaining local nets. *)
  Hashtbl.iter
    (fun name (range, kind, attrs, loc) ->
      if not (Hashtbl.mem scope.table name) then begin
        check_range name range;
        let width = Ast.range_width range in
        let full = if prefix = "" then name else prefix ^ "." ^ name in
        let n = new_net b ~name:full ~width ~kind ~attrs ~loc in
        Hashtbl.replace scope.table name (n.id, range_lsb range, width)
      end)
    info;
  (* Process items. *)
  List.iter
    (fun item ->
      match item with
      | Ast.Port_decl _ | Ast.Net_decl _ -> ()
      | Ast.Directive ("control_begin", _) -> b.b_in_control <- true
      | Ast.Directive ("control_end", _) -> b.b_in_control <- false
      | Ast.Directive (payload, _) ->
        b.b_directives <-
          (if prefix = "" then payload else prefix ^ ": " ^ payload)
          :: b.b_directives
      | Ast.Initial _ -> ()
      | Ast.Assign (lv, e, loc) ->
        let sites =
          List.map
            (fun n ->
              let id, _, _ = scope_lookup scope n in
              (id, false, loc))
            (ast_lv_names lv)
        in
        add_process b ~loc ~sites
          (Assign (resolve_lv scope lv, resolve_expr scope e))
      | Ast.Always (Ast.Comb, body, loc) ->
        add_process b ~loc ~sites:(stmt_sites scope body)
          (Comb (resolve_stmt scope body))
      | Ast.Always (Ast.Edges edges, body, loc) ->
        let edges =
          List.map
            (fun (edge, name) ->
              let id, _, _ = scope_lookup scope name in
              (edge, id))
            edges
        in
        add_process b ~loc ~sites:(stmt_sites scope body)
          (Seq (edges, resolve_stmt scope body))
      | Ast.Instance { i_module; i_name; i_conns; i_loc } ->
        elaborate_instance b design scope ~i_module ~i_name ~i_conns ~i_loc)
    m.Ast.m_items

and elaborate_instance b design scope ~i_module ~i_name ~i_conns ~i_loc =
  let child =
    match Ast.find_module design i_module with
    | Some m -> m
    | None -> fail "unknown module %s" i_module
  in
  let child_info, child_dirs = decl_info child in
  let conns =
    match i_conns with
    | (Some _, _) :: _ ->
      List.map
        (function
          | Some p, e -> (p, e)
          | None, _ -> fail "mixed named and positional connections to %s"
                         i_name)
        i_conns
    | _ ->
      (* positional *)
      (try List.combine child.Ast.m_ports (List.map snd i_conns)
       with Invalid_argument _ ->
         fail "wrong number of connections to instance %s of %s" i_name
           i_module)
  in
  let child_prefix =
    if scope.prefix = "" then i_name else scope.prefix ^ "." ^ i_name
  in
  (* Split connections into aliases (plain full-width idents) and
     assignment-style connections. *)
  let aliases = ref [] in
  let later = ref [] in
  List.iter
    (fun (port, expr) ->
      let port_range, _, _, _ =
        match Hashtbl.find_opt child_info port with
        | Some entry -> entry
        | None -> fail "module %s has no port %s" i_module port
      in
      let port_width = Ast.range_width port_range in
      match expr with
      | Ast.Ident parent_name ->
        let pid, _plsb, pwidth = scope_lookup scope parent_name in
        if pwidth = port_width then
          aliases := (port, (pid, range_lsb port_range, pwidth)) :: !aliases
        else later := (port, expr) :: !later
      | _ -> later := (port, expr) :: !later)
    conns;
  instantiate b design child ~prefix:child_prefix ~port_aliases:!aliases;
  (* Now the child's nets exist; wire up non-aliased connections. *)
  let child_scope_entry port =
    let full = child_prefix ^ "." ^ port in
    match Hashtbl.find_opt b.b_by_name full with
    | Some id -> id
    | None -> fail "internal: missing child port net %s" full
  in
  List.iter
    (fun (port, expr) ->
      let dir =
        match Hashtbl.find_opt child_dirs port with
        | Some d -> d
        | None -> fail "module %s has no port %s" i_module port
      in
      let cid = child_scope_entry port in
      match dir with
      | Ast.Input ->
        add_process b ~loc:i_loc ~sites:[ (cid, false, i_loc) ]
          (Assign (Lnet cid, resolve_expr scope expr))
      | Ast.Output ->
        let lv =
          match expr with
          | Ast.Ident _ | Ast.Index _ | Ast.Range _ ->
            resolve_lv scope
              (match expr with
               | Ast.Ident n -> Ast.Lident n
               | Ast.Index (n, i) -> Ast.Lindex (n, i)
               | Ast.Range (n, h, l) -> Ast.Lrange (n, h, l)
               | _ -> assert false)
          | _ ->
            fail "output port %s of %s must connect to an lvalue" port i_name
        in
        let sites =
          List.map (fun id -> (id, false, i_loc)) (elv_write_nets lv)
        in
        add_process b ~loc:i_loc ~sites (Assign (lv, Net cid))
      | Ast.Inout ->
        fail "inout port %s of %s must connect to a plain identifier" port
          i_name)
    (List.rev !later)

let elaborate ?top (design : Ast.design) =
  let top_module =
    match top with
    | Some name ->
      (match Ast.find_module design name with
       | Some m -> m
       | None -> fail "top module %s not found" name)
    | None ->
      (match List.rev design with
       | m :: _ -> m
       | [] -> fail "empty design")
  in
  let b =
    { b_nets = []; b_count = 0; b_by_name = Hashtbl.create 64;
      b_processes = []; b_directives = []; b_in_control = false }
  in
  instantiate b design top_module ~prefix:"" ~port_aliases:[];
  let procs = List.rev b.b_processes in
  let top_inputs = Array.make b.b_count false in
  List.iter
    (fun item ->
      match item with
      | Ast.Port_decl ((Ast.Input | Ast.Inout), _, names, _) ->
        List.iter
          (fun n ->
            match Hashtbl.find_opt b.b_by_name n with
            | Some id -> top_inputs.(id) <- true
            | None -> ())
          names
      | Ast.Port_decl (Ast.Output, _, _, _)
      | Ast.Net_decl _ | Ast.Assign _ | Ast.Always _ | Ast.Instance _
      | Ast.Directive _ | Ast.Initial _ -> ())
    top_module.Ast.m_items;
  {
    nets = Array.of_list (List.rev b.b_nets);
    processes = Array.of_list (List.map (fun (p, _, _, _) -> p) procs);
    control = Array.of_list (List.map (fun (_, c, _, _) -> c) procs);
    by_name = b.b_by_name;
    top = top_module.Ast.m_name;
    directives = List.rev b.b_directives;
    top_inputs;
    process_locs = Array.of_list (List.map (fun (_, _, l, _) -> l) procs);
    write_sites = Array.of_list (List.map (fun (_, _, _, s) -> s) procs);
  }

let net t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> t.nets.(id)
  | None -> raise Not_found

let net_id t name = (net t name).id

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)
(* ------------------------------------------------------------------ *)

type annotations = {
  clock : string option;
  reset : string option;
  frees : string list;
  ties : (string * (int, string) result) list;
  states : bool array;
}

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(* Directives read in order, then declaration attributes in net order;
   a child instance's directive arrives as "prefix: payload" (see
   [instantiate]) and names its nets relative to the prefix. *)
let annotations t =
  let clock = ref None and reset = ref None in
  let frees = ref [] and ties = ref [] in
  let directive prefix payload =
    let qualify n = if prefix = "" then n else prefix ^ "." ^ n in
    match words payload with
    | [ "clock"; n ] -> if !clock = None then clock := Some (qualify n)
    | [ "reset"; n ] -> if !reset = None then reset := Some (qualify n)
    | [ "free"; n ] -> frees := qualify n :: !frees
    | [ "tie"; n; v ] ->
      let value =
        match int_of_string_opt v with
        | Some v -> Ok v
        | None ->
          Error ("tie directive with non-integer value: " ^ payload)
      in
      ties := (qualify n, value) :: !ties
    | _ -> ()
  in
  List.iter
    (fun payload ->
      match String.index_opt payload ':' with
      | Some i when i + 1 < String.length payload && payload.[i + 1] = ' ' ->
        directive (String.sub payload 0 i)
          (String.sub payload (i + 2) (String.length payload - i - 2))
      | Some _ | None -> directive "" payload)
    t.directives;
  let states = Array.make (Array.length t.nets) false in
  Array.iter
    (fun net ->
      List.iter
        (fun attr ->
          match words attr with
          | [ "state" ] -> states.(net.id) <- true
          | [ "free" ] -> frees := net.name :: !frees
          | [ "tie"; v ] ->
            let value =
              match int_of_string_opt v with
              | Some v -> Ok v
              | None -> Error ("bad tie attribute on " ^ net.name)
            in
            ties := (net.name, value) :: !ties
          | _ -> ())
        net.attrs)
    t.nets;
  { clock = !clock; reset = !reset; frees = List.rev !frees;
    ties = List.rev !ties; states }

(* ------------------------------------------------------------------ *)
(* Analysis helpers                                                   *)
(* ------------------------------------------------------------------ *)

let dedup_ids ids =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun id ->
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    ids

let rec expr_nets_acc acc = function
  | Const _ -> acc
  | Net id -> id :: acc
  | Index (id, e) -> expr_nets_acc (id :: acc) e
  | Range (id, _, _) -> id :: acc
  | Unop (_, e) -> expr_nets_acc acc e
  | Binop (_, a, b) -> expr_nets_acc (expr_nets_acc acc a) b
  | Ternary (c, a, b) ->
    expr_nets_acc (expr_nets_acc (expr_nets_acc acc c) a) b
  | Concat es -> List.fold_left expr_nets_acc acc es
  | Repeat (_, e) -> expr_nets_acc acc e

let expr_nets e = dedup_ids (List.rev (expr_nets_acc [] e))

let rec lv_nets_acc acc = function
  | Lnet id -> id :: acc
  | Lindex (id, _) -> id :: acc
  | Lrange (id, _, _) -> id :: acc
  | Lconcat ls -> List.fold_left lv_nets_acc acc ls

let lv_nets lv = dedup_ids (List.rev (lv_nets_acc [] lv))

let rec lv_reads_acc acc = function
  | Lnet _ -> acc
  | Lindex (_, e) -> expr_nets_acc acc e
  | Lrange _ -> acc
  | Lconcat ls -> List.fold_left lv_reads_acc acc ls

let rec stmt_reads_acc acc = function
  | Block ss -> List.fold_left stmt_reads_acc acc ss
  | Blocking (lv, e) | Nonblocking (lv, e) ->
    expr_nets_acc (lv_reads_acc acc lv) e
  | If (c, t, e) ->
    let acc = stmt_reads_acc (expr_nets_acc acc c) t in
    (match e with None -> acc | Some s -> stmt_reads_acc acc s)
  | Case (sel, items, dflt) ->
    let acc = expr_nets_acc acc sel in
    let acc =
      List.fold_left
        (fun acc (labels, body) ->
          stmt_reads_acc (List.fold_left expr_nets_acc acc labels) body)
        acc items
    in
    (match dflt with None -> acc | Some s -> stmt_reads_acc acc s)
  | Nop -> acc

let stmt_reads s = dedup_ids (List.rev (stmt_reads_acc [] s))

let rec stmt_writes_acc acc = function
  | Block ss -> List.fold_left stmt_writes_acc acc ss
  | Blocking (lv, _) | Nonblocking (lv, _) ->
    List.rev_append (lv_nets lv) acc
  | If (_, t, e) ->
    let acc = stmt_writes_acc acc t in
    (match e with None -> acc | Some s -> stmt_writes_acc acc s)
  | Case (_, items, dflt) ->
    let acc =
      List.fold_left (fun acc (_, body) -> stmt_writes_acc acc body) acc items
    in
    (match dflt with None -> acc | Some s -> stmt_writes_acc acc s)
  | Nop -> acc

let stmt_writes s = dedup_ids (List.rev (stmt_writes_acc [] s))

let pp_summary ppf t =
  let count p = Array.to_list t.processes |> List.filter p |> List.length in
  Format.fprintf ppf
    "design %s: %d nets, %d processes (%d assign, %d comb, %d seq)" t.top
    (Array.length t.nets)
    (Array.length t.processes)
    (count (function Assign _ -> true | _ -> false))
    (count (function Comb _ -> true | _ -> false))
    (count (function Seq _ -> true | _ -> false))
