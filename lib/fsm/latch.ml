open Avp_hdl

type kind = Incomplete_assignment | Self_dependent

type latch = {
  net : Elab.enet;
  kind : kind;
  process_index : int;
}

let pp_latch ppf l =
  Format.fprintf ppf "%s: %s (process %d)" l.net.Elab.name
    (match l.kind with
     | Incomplete_assignment -> "incomplete assignment"
     | Self_dependent -> "self-dependent")
    l.process_index

module Ids = Set.Make (Int)

(* Nets assigned in full on every path.  Partial writes (bit or range)
   are conservatively not counted: a partial write still latches the
   remaining bits. *)
let rec must_assign_set (s : Elab.estmt) : Ids.t =
  match s with
  | Elab.Block ss ->
    List.fold_left (fun acc s -> Ids.union acc (must_assign_set s)) Ids.empty
      ss
  | Elab.Blocking (lv, _) | Elab.Nonblocking (lv, _) ->
    let rec full = function
      | Elab.Lnet id -> Ids.singleton id
      | Elab.Lindex _ | Elab.Lrange _ -> Ids.empty
      | Elab.Lconcat ls ->
        List.fold_left (fun acc l -> Ids.union acc (full l)) Ids.empty ls
    in
    full lv
  | Elab.If (_, t, Some e) ->
    Ids.inter (must_assign_set t) (must_assign_set e)
  | Elab.If (_, _, None) -> Ids.empty
  | Elab.Case (_, items, Some dflt) ->
    List.fold_left
      (fun acc (_, body) -> Ids.inter acc (must_assign_set body))
      (must_assign_set dflt) items
  | Elab.Case (_, _, None) -> Ids.empty
  | Elab.Nop -> Ids.empty

let analyze (d : Elab.t) : latch list =
  let out = ref [] in
  Array.iteri
    (fun pi p ->
      match p with
      | Elab.Assign _ | Elab.Seq _ -> ()
      | Elab.Comb body ->
        let writes = Elab.stmt_writes body in
        let reads = Ids.of_list (Elab.stmt_reads body) in
        let complete = must_assign_set body in
        List.iter
          (fun id ->
            if not (Ids.mem id complete) then
              out :=
                { net = d.Elab.nets.(id); kind = Incomplete_assignment;
                  process_index = pi }
                :: !out
            else if Ids.mem id reads then
              out :=
                { net = d.Elab.nets.(id); kind = Self_dependent;
                  process_index = pi }
                :: !out)
          writes)
    d.Elab.processes;
  List.rev !out
