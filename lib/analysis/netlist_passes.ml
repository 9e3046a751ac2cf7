(* Netlist-level analysis passes over [Elab.t], built on the
   {!Dataflow} framework.  Each pass returns plain findings; the
   {!Analysis} front end owns selection, ordering and output. *)

open Avp_hdl

let net_name (d : Elab.t) id = d.Elab.nets.(id).Elab.name

(* Declaration position when the net has one; elaboration-introduced
   nets (port connections, flattened instances) fall back to their
   first assignment site so findings stop pointing at 0:0. *)
let net_loc = Dataflow.net_loc

(* ------------------------------------------------------------------ *)
(* comb-loop: combinational cycles                                    *)
(* ------------------------------------------------------------------ *)

(* A cycle of nets through [Assign]/[Comb] processes never settles:
   the fixpoint of the interpreter and of the bit-sliced kernel raises
   [Sim.Comb_loop] mid-run.  Detect the cycles statically with Tarjan
   SCC over the combinational dependency graph, before any simulator
   is constructed. *)
let comb_loop (d : Elab.t) (infos : Dataflow.proc_info array) :
    Finding.t list =
  let g = Dataflow.comb_graph ~infos d in
  let components = Dataflow.sccs g in
  List.filter_map
    (fun comp ->
      let cyclic =
        match comp with
        | [] -> false
        | [ v ] -> Dataflow.has_self_edge g v
        | _ :: _ :: _ -> true
      in
      if not cyclic then None
      else begin
        let comp = List.sort Int.compare comp in
        let anchor = List.hd comp in
        (* Report the loop at the position of one process on the
           cycle: the first process driving the anchor net from
           within the component. *)
        let in_comp = Hashtbl.create 8 in
        List.iter (fun v -> Hashtbl.replace in_comp v ()) comp;
        let loc =
          List.fold_left
            (fun acc v ->
              match acc with
              | Some _ -> acc
              | None ->
                List.find_map
                  (fun (w, pi) ->
                    if Hashtbl.mem in_comp w then Some infos.(pi).Dataflow.loc
                    else None)
                  g.Dataflow.succs.(v))
            None comp
        in
        let names = List.map (net_name d) comp in
        let path =
          match names with
          | [ n ] -> [ n; n ]
          | ns -> ns @ [ List.hd ns ]
        in
        Some
          (Finding.make ~net_id:anchor ~net:(net_name d anchor) ?loc ~path
             Finding.Error "comb-loop"
             (Printf.sprintf
                "combinational cycle through %d net%s: the design cannot \
                 settle"
                (List.length comp)
                (if List.length comp = 1 then "" else "s")))
      end)
    components

(* ------------------------------------------------------------------ *)
(* latch: incomplete combinational assignment                         *)
(* ------------------------------------------------------------------ *)

(* A net written by an always @* process but not on every path keeps
   its old value on the uncovered paths — synthesis infers a latch.
   Nets annotated '// avp state' are excluded: the translator folds
   intentional latches into the FSM state (see [Latch]). *)
let latch (d : Elab.t) (infos : Dataflow.proc_info array) : Finding.t list =
  let out = ref [] in
  Array.iter
    (fun (info : Dataflow.proc_info) ->
      if info.Dataflow.kind = Dataflow.Kcomb then begin
        let body =
          match d.Elab.processes.(info.Dataflow.index) with
          | Elab.Comb body -> body
          | _ -> assert false
        in
        let complete = Avp_fsm.Latch.must_assign_set body in
        List.iter
          (fun id ->
            let net = d.Elab.nets.(id) in
            let annotated_state =
              List.exists
                (fun a ->
                  String.split_on_char ' ' a
                  |> List.filter (fun w -> w <> "")
                  |> ( = ) [ "state" ])
                net.Elab.attrs
            in
            if
              (not (Avp_fsm.Latch.Ids.mem id complete)) && not annotated_state
            then begin
              let why =
                match Dataflow.missing_path body id with
                | Some path -> Dataflow.path_str d path
                | None -> "on some path"
              in
              out :=
                Finding.make ~net_id:id ~net:net.Elab.name
                  ~loc:info.Dataflow.loc Finding.Warning "latch"
                  (Printf.sprintf
                     "not assigned on all paths of a combinational process \
                      (%s): a latch is inferred"
                     why)
                :: !out
            end)
          info.Dataflow.writes
      end)
    infos;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* x-source: forward taint from Z/X-capable nets to latch points      *)
(* ------------------------------------------------------------------ *)

type xz_source = {
  src_net : int;
  src_desc : string;
}

(* Bug #5's shape: a bus that can carry Z (tri-state with imperfect
   enables, an undriven wire, an explicit 'bx/'bz) feeds — possibly
   through combinational logic — a register's D input.  One glitch on
   the enable and the Z is latched into architectural state.  The
   taint runs forward over the comb dependency graph; each finding
   reports the full path so the hazard is auditable. *)
let x_source (d : Elab.t) (infos : Dataflow.proc_info array) :
    Finding.t list =
  let n = Array.length d.Elab.nets in
  (* 1. Collect sources. *)
  let sources = ref [] in
  let assign_drivers = Array.make n 0 in
  let any_writer = Array.make n false in
  Array.iter
    (fun (info : Dataflow.proc_info) ->
      List.iter
        (fun id ->
          any_writer.(id) <- true;
          if info.Dataflow.kind = Dataflow.Kassign then
            assign_drivers.(id) <- assign_drivers.(id) + 1)
        info.Dataflow.writes)
    infos;
  (* Multi-driver continuous nets: tri-state resolution can produce X
     (conflicting drivers) or Z (no driver enabled). *)
  for id = 0 to n - 1 do
    if assign_drivers.(id) > 1 then
      sources :=
        { src_net = id;
          src_desc =
            Printf.sprintf "tri-state bus (%d continuous drivers)"
              assign_drivers.(id) }
        :: !sources;
    (* Undriven wires float at Z; never-written registers stay X. *)
    if (not any_writer.(id)) && not d.Elab.top_inputs.(id) then
      (match d.Elab.nets.(id).Elab.kind with
       | Ast.Wire ->
         sources :=
           { src_net = id; src_desc = "undriven wire (floats at z)" }
           :: !sources
       | Ast.Reg ->
         sources :=
           { src_net = id;
             src_desc = "register never assigned (stays at x)" }
           :: !sources)
  done;
  (* Explicit 'bx / 'bz literals taint the nets the process writes. *)
  Array.iteri
    (fun pi p ->
      let has_xz =
        List.exists
          (fun e ->
            List.exists Dataflow.bv_has_xz (Dataflow.expr_consts_acc [] e))
          (Dataflow.proc_exprs p)
      in
      if has_xz then
        List.iter
          (fun id ->
            sources :=
              { src_net = id;
                src_desc =
                  Printf.sprintf "explicit 'bx/'bz literal (line %d)"
                    d.Elab.process_locs.(pi).Ast.line }
              :: !sources)
          (Dataflow.proc_writes p))
    d.Elab.processes;
  let sources = List.rev !sources in
  (* 2. Sequential latch points: seq process reads net -> writes reg. *)
  let seq_sinks = Array.make n [] in
  (* net id -> (reg id, process) list *)
  Array.iter
    (fun (info : Dataflow.proc_info) ->
      if info.Dataflow.kind = Dataflow.Kseq then
        List.iter
          (fun read ->
            List.iter
              (fun reg -> seq_sinks.(read) <- (reg, info) :: seq_sinks.(read))
              info.Dataflow.writes)
          info.Dataflow.reads)
    infos;
  Array.iteri (fun i l -> seq_sinks.(i) <- List.rev l) seq_sinks;
  (* 3. Forward BFS per source over comb edges, with parent chain. *)
  let g = Dataflow.comb_graph ~infos d in
  let out = ref [] in
  let reported = Hashtbl.create 16 in
  List.iter
    (fun { src_net; src_desc } ->
      let parent = Array.make n (-2) in
      (* -2 unvisited, -1 root *)
      parent.(src_net) <- -1;
      let queue = Queue.create () in
      Queue.add src_net queue;
      let rec path_to id acc =
        if parent.(id) = -1 then net_name d id :: acc
        else path_to parent.(id) (net_name d id :: acc)
      in
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        List.iter
          (fun (reg, (sink : Dataflow.proc_info)) ->
            let key = (src_net, reg) in
            if not (Hashtbl.mem reported key) then begin
              Hashtbl.replace reported key ();
              let path = path_to v [ net_name d reg ] in
              out :=
                Finding.make ~net_id:reg ~net:(net_name d reg)
                  ~loc:sink.Dataflow.loc ~path Finding.Warning "x-source"
                  (Printf.sprintf
                     "sequential register can latch X/Z originating from %s \
                      (%s)"
                     (net_name d src_net) src_desc)
                :: !out
            end)
          seq_sinks.(v);
        List.iter
          (fun (w, _) ->
            if parent.(w) = -2 && w <> src_net then begin
              parent.(w) <- v;
              Queue.add w queue
            end)
          g.Dataflow.succs.(v)
      done)
    sources;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* width-mismatch                                                     *)
(* ------------------------------------------------------------------ *)

let rec lv_width (d : Elab.t) = function
  | Elab.Lnet id -> d.Elab.nets.(id).Elab.width
  | Elab.Lindex _ -> 1
  | Elab.Lrange (_, hi, lo) -> hi - lo + 1
  | Elab.Lconcat ls ->
    List.fold_left (fun acc l -> acc + lv_width d l) 0 ls

(* Effective width: like [Elab.expr_width] but constants count only
   their significant bits, so unsized literals (stored as width-32
   vectors) and parameter constants do not flood the lint. *)
let rec eff_width (d : Elab.t) (e : Elab.eexpr) : int =
  match e with
  | Elab.Const v ->
    let s = Avp_logic.Bv.to_string v in
    let n = String.length s in
    let rec first_sig i =
      if i >= n - 1 then i
      else if s.[i] = '0' then first_sig (i + 1)
      else i
    in
    n - first_sig 0
  | Elab.Net id -> d.Elab.nets.(id).Elab.width
  | Elab.Index _ -> 1
  | Elab.Range (_, hi, lo) -> hi - lo + 1
  | Elab.Unop ((Ast.Not | Ast.Uand | Ast.Uor | Ast.Uxor), _) -> 1
  | Elab.Unop ((Ast.Bnot | Ast.Neg), e) -> eff_width d e
  | Elab.Binop
      ( ( Ast.Eq | Ast.Neq | Ast.Ceq | Ast.Cneq | Ast.Lt | Ast.Le | Ast.Gt
        | Ast.Ge | Ast.Land | Ast.Lor ),
        _,
        _ ) -> 1
  | Elab.Binop ((Ast.Shl | Ast.Shr), a, _) -> eff_width d a
  | Elab.Binop (_, a, b) -> max (eff_width d a) (eff_width d b)
  | Elab.Ternary (_, a, b) -> max (eff_width d a) (eff_width d b)
  | Elab.Concat es -> List.fold_left (fun acc e -> acc + eff_width d e) 0 es
  | Elab.Repeat (n, e) -> n * eff_width d e

let is_const = function Elab.Const _ -> true | _ -> false

let width_check (d : Elab.t) (infos : Dataflow.proc_info array) :
    Finding.t list =
  let out = ref [] in
  let check_assign loc lv e =
    let lw = lv_width d lv in
    let rw = eff_width d e in
    if rw > lw then
      let id = match Elab.lv_nets lv with id :: _ -> id | [] -> -1 in
      out :=
        Finding.make ~net_id:id
          ?net:(if id >= 0 then Some (net_name d id) else None)
          ~loc Finding.Warning "width-mismatch"
          (Printf.sprintf
             "assignment truncates: rhs has %d significant bit%s, lhs has %d"
             rw
             (if rw = 1 then "" else "s")
             lw)
        :: !out
  in
  let rec check_expr loc (e : Elab.eexpr) =
    (match e with
     | Elab.Binop
         ( (Ast.Eq | Ast.Neq | Ast.Ceq | Ast.Cneq | Ast.Lt | Ast.Le | Ast.Gt
           | Ast.Ge),
           a,
           b )
       when (not (is_const a)) && not (is_const b) ->
       let wa = eff_width d a and wb = eff_width d b in
       if wa <> wb then
         out :=
           Finding.make ~loc Finding.Warning "width-mismatch"
             (Printf.sprintf
                "comparison operands have different widths (%d vs %d): %s"
                wa wb (Dataflow.expr_str d e))
           :: !out
     | _ -> ());
    match e with
    | Elab.Const _ | Elab.Net _ | Elab.Range _ -> ()
    | Elab.Index (_, e) | Elab.Unop (_, e) | Elab.Repeat (_, e) ->
      check_expr loc e
    | Elab.Binop (_, a, b) ->
      check_expr loc a;
      check_expr loc b
    | Elab.Ternary (c, a, b) ->
      check_expr loc c;
      check_expr loc a;
      check_expr loc b
    | Elab.Concat es -> List.iter (check_expr loc) es
  in
  Array.iter
    (fun (info : Dataflow.proc_info) ->
      let loc = info.Dataflow.loc in
      match d.Elab.processes.(info.Dataflow.index) with
      | Elab.Assign (lv, e) ->
        check_assign loc lv e;
        check_expr loc e
      | Elab.Comb body | Elab.Seq (_, body) ->
        Dataflow.walk_assigns body ~f:(fun _path ~blocking:_ lv e ->
            check_assign loc lv e;
            check_expr loc e)
    )
    infos;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* races: scheduling hazards between assignment sites                 *)
(* ------------------------------------------------------------------ *)

let pos_str (loc : Ast.loc) =
  Printf.sprintf "%d:%d" loc.Ast.line loc.Ast.col

(* The per-statement spans kept in [Elab.write_sites] make two
   scheduling hazards reportable with both positions:

   - sched-race: a net written by both a blocking and a nonblocking
     procedural assignment.  Whether a same-cycle reader sees the old
     or the new value depends on scheduler ordering, which the
     interpreter and the bit-sliced kernel are free to pick
     differently.
   - sched-race-edge: two distinct edge-triggered processes fire on
     the same edge of the same clock and both write the net; the
     commit order of their nonblocking updates is unspecified, so the
     net's next value is whichever process the scheduler runs last.

   Continuous assignments are excluded: an [Assign] is a drive, not a
   scheduled write, and multi-driver conflicts are the domain of
   multiple-drivers / x-source. *)
let races (d : Elab.t) : Finding.t list =
  let n = Array.length d.Elab.nets in
  let blocking = Array.make n None and nonblocking = Array.make n None in
  Array.iteri
    (fun pi sites ->
      match d.Elab.processes.(pi) with
      | Elab.Assign _ -> ()
      | Elab.Comb _ | Elab.Seq _ ->
        List.iter
          (fun (id, nb, loc) ->
            let slot = if nb then nonblocking else blocking in
            if slot.(id) = None then slot.(id) <- Some loc)
          sites)
    d.Elab.write_sites;
  let out = ref [] in
  for id = 0 to n - 1 do
    match (blocking.(id), nonblocking.(id)) with
    | Some bl, Some nl ->
      out :=
        Finding.make ~net_id:id ~net:(net_name d id) ~loc:bl Finding.Warning
          "sched-race"
          (Printf.sprintf
             "blocking write at %s races the nonblocking write at %s: a \
              same-cycle reader sees either value depending on scheduling"
             (pos_str bl) (pos_str nl))
        :: !out
    | _ -> ()
  done;
  (* Same-edge dual writers: (edge, clock, process, first site). *)
  let edge_writers = Array.make n [] in
  Array.iteri
    (fun pi sites ->
      match d.Elab.processes.(pi) with
      | Elab.Seq (edges, _) ->
        List.iter
          (fun (id, _, loc) ->
            List.iter
              (fun (edge, clk) ->
                if
                  not
                    (List.exists
                       (fun (e, c, p, _) -> e = edge && c = clk && p = pi)
                       edge_writers.(id))
                then edge_writers.(id) <- (edge, clk, pi, loc) :: edge_writers.(id))
              edges)
          sites
      | _ -> ())
    d.Elab.write_sites;
  for id = 0 to n - 1 do
    let writers = List.rev edge_writers.(id) in
    let rec pair = function
      | [] -> ()
      | (e, c, _, l1) :: rest -> (
        match List.find_opt (fun (e', c', _, _) -> e' = e && c' = c) rest with
        | Some (_, _, _, l2) ->
          out :=
            Finding.make ~net_id:id ~net:(net_name d id) ~loc:l1 Finding.Error
              "sched-race-edge"
              (Printf.sprintf
                 "written at %s and %s by two processes triggered on %s %s: \
                  the nonblocking commit order is unspecified"
                 (pos_str l1) (pos_str l2)
                 (match e with Ast.Posedge -> "posedge" | Ast.Negedge -> "negedge")
                 (net_name d c))
            :: !out
        | None -> pair rest)
    in
    pair writers
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* structural: the original per-net Lint rules, migrated              *)
(* ------------------------------------------------------------------ *)

let structural (d : Elab.t) : Finding.t list =
  List.map
    (fun (f : Lint.finding) ->
      let net_id, loc =
        match f.Lint.net with
        | None -> (-1, None)
        | Some name -> (
          match Hashtbl.find_opt d.Elab.by_name name with
          | Some id -> (id, Some (net_loc d id))
          | None -> (-1, None))
      in
      let severity =
        match f.Lint.severity with
        | Lint.Warning -> Finding.Warning
        | Lint.Error -> Finding.Error
      in
      Finding.make ~net_id ?net:f.Lint.net ?loc severity f.Lint.rule
        f.Lint.message)
    (Lint.check d)
