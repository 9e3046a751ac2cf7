(* No export and no option without a caller.

   Run from the repository root after [dune build @check]:

     dune build @check && dune exec tools/callers/callers.exe

   Reads the typed trees the compiler saved (every .cmt and .cmti under
   _build/default: lib/, bin/, bench/, perfbench/, examples/, tools/ and
   the tests) and lists

   - each value a lib/ interface exports that no other compilation unit
     references (a module's own uses do not count), and
   - each optional parameter of such a value that no application
     passes, the defining module's own applications included.  An
     option passed on ([f ?x] inside [g ?x]) counts as passed, so once
     [g]'s [?x] is deleted, [f]'s is listed next.

   Names are resolved as the compiler resolved them, not by text:
   module aliases ([module C = Avp_core.Commands], [let module], dune's
   library alias modules) are followed to the compilation unit, so
   same-named modules of different libraries ([Avp_mutate.Campaign],
   [Avp_harness.Campaign]) stay apart.

   Exits 1 when it lists anything, 0 otherwise. *)

open Typedtree

let build = Filename.concat "_build" "default"

(* A value or module as [unit; module; ...; name], where [unit] is the
   compilation unit's name (dune's [Avp_fsm__Translate]). *)
type name = string list

let rec typed_trees dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then typed_trees path acc
      else if Filename.check_suffix entry ".cmt"
           || Filename.check_suffix entry ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* [module X = P] anywhere, as [unit; ...; X] -> P. *)
let aliases : (name, name) Hashtbl.t = Hashtbl.create 256

(* Follows aliases through every prefix: [Avp_fsm; Model; create]
   becomes [Avp_fsm__Model; create]. *)
let rec normalize (n : name) : name =
  List.fold_left
    (fun acc s ->
      let n = acc @ [ s ] in
      match Hashtbl.find_opt aliases n with
      | Some target when target <> n -> normalize target
      | Some _ | None -> n)
    [] n

(* Per use site, resolved later, once every unit's aliases are known. *)
let refs : (string * name) list ref = ref []  (* (user unit, value) *)
let passes : (name * string) list ref = ref []  (* (value, option) *)

let scan_implementation modname (str : structure) =
  let values : (Ident.t, name) Hashtbl.t = Hashtbl.create 64 in
  let modules : (Ident.t, name) Hashtbl.t = Hashtbl.create 16 in
  let prefix = ref [ modname ] in
  let rec resolve_module (p : Path.t) =
    match p with
    | Pident id -> (
      match Hashtbl.find_opt modules id with
      | Some n -> Some n
      | None -> if Ident.persistent id then Some [ Ident.name id ] else None)
    | Pdot (p, s) -> Option.map (fun n -> n @ [ s ]) (resolve_module p)
    | _ -> None
  in
  let resolve_value (p : Path.t) =
    match p with
    | Pident id -> Hashtbl.find_opt values id
    | Pdot (m, s) -> Option.map (fun n -> n @ [ s ]) (resolve_module m)
    | _ -> None
  in
  let rec alias_of (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> resolve_module p
    | Tmod_constraint (me, _, _, _) -> alias_of me
    | _ -> None
  in
  (* Binds a module for the rest of the unit, then walks its body
     under its own name. *)
  let bind id name me walk =
    let own = !prefix @ [ name ] in
    match alias_of me with
    | Some target ->
      Option.iter (fun id -> Hashtbl.replace modules id target) id;
      Hashtbl.replace aliases own target;
      walk ()
    | None ->
      Option.iter (fun id -> Hashtbl.replace modules id own) id;
      let outer = !prefix in
      prefix := own;
      walk ();
      prefix := outer
  in
  let default = Tast_iterator.default_iterator in
  let iterator =
    { default with
      structure_item =
        (fun self item ->
          (match item.str_desc with
           | Tstr_value (_, vbs) ->
             List.iter
               (fun id ->
                 Hashtbl.replace values id (!prefix @ [ Ident.name id ]))
               (let_bound_idents vbs)
           | _ -> ());
          default.structure_item self item);
      module_binding =
        (fun self mb ->
          let name = Option.value mb.mb_name.txt ~default:"_" in
          bind mb.mb_id name mb.mb_expr (fun () ->
              default.module_binding self mb));
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_letmodule (id, name, _, me, body) ->
            let name = Option.value name.txt ~default:"_" in
            bind id name me (fun () -> self.module_expr self me);
            self.expr self body
          | Texp_ident (p, _, _) ->
            Option.iter (fun v -> refs := (modname, v) :: !refs)
              (resolve_value p);
            default.expr self e
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
            Option.iter
              (fun v ->
                List.iter
                  (fun (label, arg) ->
                    match (label : Asttypes.arg_label), arg with
                    (* An omitted option is applied to a [None] the
                       compiler inserts, with no source location. *)
                    | Optional l, Some (a : expression)
                      when not (Location.is_none a.exp_loc) ->
                      passes := (v, l) :: !passes
                    | _ -> ())
                  args)
              (resolve_value p);
            default.expr self e
          | _ -> default.expr self e) }
  in
  iterator.structure iterator str

type export = {
  value : name;
  file : string;
  line : int;
  options : string list;
}

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | Tpoly (ty, _) -> optional_labels ty
  | _ -> []

let rec signature_exports prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        let pos = vd.val_loc.loc_start in
        [ { value = prefix @ [ Ident.name vd.val_id ];
            file = pos.pos_fname; line = pos.pos_lnum;
            options = optional_labels vd.val_val.val_type } ]
      | Tsig_module { md_name = { txt = Some m; _ };
                      md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
        signature_exports (prefix @ [ m ]) sg
      | _ -> [])
    sg.sig_items

let is_lib = function
  | Some f -> String.starts_with ~prefix:"lib/" f
  | None -> false

(* [Avp_fsm__Model; Builder; state] -> "Avp_fsm.Model.Builder.state". *)
let display (n : name) =
  let b = Buffer.create 32 in
  let s = String.concat "." n in
  let i = ref 0 in
  while !i < String.length s do
    if !i + 1 < String.length s && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let () =
  if not (Sys.file_exists build) then begin
    prerr_endline "no _build/default: run `dune build @check` first";
    exit 2
  end;
  let files = List.sort compare (typed_trees build []) in
  let exports = ref [] in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match cmt.cmt_annots with
      | Implementation str -> scan_implementation cmt.cmt_modname str
      | Interface sg when is_lib cmt.cmt_sourcefile ->
        exports := signature_exports [ cmt.cmt_modname ] sg @ !exports
      | _ -> ())
    files;
  let used = Hashtbl.create 1024 and passed = Hashtbl.create 256 in
  List.iter
    (fun (user, v) ->
      let v = normalize v in
      if List.hd v <> user then Hashtbl.replace used v ())
    !refs;
  List.iter
    (fun (v, l) -> Hashtbl.replace passed (normalize v, l) ())
    !passes;
  let exports =
    List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line)) !exports
  in
  let unused = ref 0 and never = ref 0 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem used e.value) then begin
        incr unused;
        Printf.printf "%s:%d: val %s has no caller outside its module\n"
          e.file e.line (display e.value)
      end;
      List.iter
        (fun l ->
          if not (Hashtbl.mem passed (e.value, l)) then begin
            incr never;
            Printf.printf "%s:%d: %s ?%s is never passed\n" e.file e.line
              (display e.value) l
          end)
        e.options)
    exports;
  Printf.printf
    "%d unused exports, %d never-passed options (%d typed trees read)\n"
    !unused !never (List.length files);
  exit (if !unused + !never > 0 then 1 else 0)
