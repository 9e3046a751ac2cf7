open Avp_logic
open Avp_hdl

type binding = { var : Model.var; net : Elab.enet }

type result = {
  model : Model.t;
  state_bindings : binding array;
  choice_bindings : binding array;
  elab : Elab.t;
  clock : string;
  reset : string;
  latches : Latch.latch list;
}

exception Unsupported of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let value_of_bv bv =
  match Bv.to_int bv with
  | Some v -> v
  | None -> fail "undefined value %s cannot encode a state" (Bv.to_string bv)

let bv_of_value ~width v = Bv.of_int ~width v

(* Binary value names, MSB first, so a 2-bit var has values
   00/01/10/11; scalars get 0/1. *)
let var_of_net (net : Elab.enet) =
  let w = net.Elab.width in
  if w > 16 then
    fail "net %s is %d bits wide; annotate a distinguished-case
 abstraction instead of enumerating 2^%d values" net.Elab.name w w;
  let card = 1 lsl w in
  let values =
    Array.init card (fun v -> Bv.to_string (Bv.of_int ~width:w v))
  in
  Model.var net.Elab.name values

(* ------------------------------------------------------------------ *)
(* Directive parsing                                                  *)
(* ------------------------------------------------------------------ *)

type annotations = {
  mutable clock : string option;
  mutable reset : string option;
  frees : (string, unit) Hashtbl.t;
  ties : (string, int) Hashtbl.t;
}

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Module-level directives from child instances arrive as
   "prefix: payload"; net names inside them are prefixed. *)
let parse_directives (d : Elab.t) =
  let ann =
    { clock = None; reset = None; frees = Hashtbl.create 8;
      ties = Hashtbl.create 8 }
  in
  let handle prefix payload =
    let qualify n = if prefix = "" then n else prefix ^ "." ^ n in
    match split_words payload with
    | [ "clock"; n ] -> if ann.clock = None then ann.clock <- Some (qualify n)
    | [ "reset"; n ] -> if ann.reset = None then ann.reset <- Some (qualify n)
    | [ "free"; n ] -> Hashtbl.replace ann.frees (qualify n) ()
    | [ "tie"; n; v ] ->
      (match int_of_string_opt v with
       | Some v -> Hashtbl.replace ann.ties (qualify n) v
       | None -> fail "tie directive with non-integer value: %s" payload)
    | _ -> ()
  in
  List.iter
    (fun payload ->
      match String.index_opt payload ':' with
      | Some i
        when i + 1 < String.length payload && payload.[i + 1] = ' ' ->
        handle (String.sub payload 0 i)
          (String.sub payload (i + 2) (String.length payload - i - 2))
      | Some _ | None -> handle "" payload)
    d.Elab.directives;
  (* Declaration-line attributes. *)
  Array.iter
    (fun (net : Elab.enet) ->
      List.iter
        (fun attr ->
          match split_words attr with
          | [ "free" ] -> Hashtbl.replace ann.frees net.Elab.name ()
          | [ "tie"; v ] ->
            (match int_of_string_opt v with
             | Some v -> Hashtbl.replace ann.ties net.Elab.name v
             | None -> fail "bad tie attribute on %s" net.Elab.name)
          | _ -> ())
        net.Elab.attrs)
    d.Elab.nets;
  ann

let is_state (net : Elab.enet) =
  List.exists (fun a -> split_words a = [ "state" ]) net.Elab.attrs

(* ------------------------------------------------------------------ *)
(* Cone of influence                                                  *)
(* ------------------------------------------------------------------ *)

type cone = {
  nets : bool array;  (** net id -> in cone *)
  seq_written : bool array;  (** net id -> written by a Seq process *)
}

let process_reads (p : Elab.process) =
  match p with
  | Elab.Assign (lv, e) ->
    let lv_index_reads =
      let rec go acc = function
        | Elab.Lnet _ | Elab.Lrange _ -> acc
        | Elab.Lindex (_, e) -> Elab.expr_nets e @ acc
        | Elab.Lconcat ls -> List.fold_left go acc ls
      in
      go [] lv
    in
    Elab.expr_nets e @ lv_index_reads
  | Elab.Comb s -> Elab.stmt_reads s
  | Elab.Seq (_, s) -> Elab.stmt_reads s

let process_writes (p : Elab.process) =
  match p with
  | Elab.Assign (lv, _) -> Elab.lv_nets lv
  | Elab.Comb s | Elab.Seq (_, s) -> Elab.stmt_writes s

let compute_cone (d : Elab.t) ~(roots : int list) ~(stop : int -> bool) =
  let n = Array.length d.Elab.nets in
  let in_cone = Array.make n false in
  let seq_written = Array.make n false in
  (* net -> indices of processes writing it *)
  let writers = Array.make n [] in
  Array.iteri
    (fun pi p ->
      (match p with
       | Elab.Seq _ ->
         List.iter (fun id -> seq_written.(id) <- true) (process_writes p)
       | Elab.Assign _ | Elab.Comb _ -> ());
      List.iter (fun id -> writers.(id) <- pi :: writers.(id))
        (process_writes p))
    d.Elab.processes;
  let queue = Queue.create () in
  let visit id =
    if not in_cone.(id) then begin
      in_cone.(id) <- true;
      Queue.add id queue
    end
  in
  List.iter visit roots;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if not (stop id) then
      List.iter
        (fun pi ->
          List.iter
            (fun rid -> if not (stop rid) then visit rid)
            (process_reads d.Elab.processes.(pi)))
        writers.(id)
  done;
  { nets = in_cone; seq_written }

(* ------------------------------------------------------------------ *)
(* Translation                                                        *)
(* ------------------------------------------------------------------ *)

let translate ?clock ?reset ?(reset_cycles = 1) (d : Elab.t) =
  let ann = parse_directives d in
  let clock =
    match clock, ann.clock with
    | Some c, _ -> c
    | None, Some c -> c
    | None, None -> fail "no clock: add a '// avp clock <net>' directive"
  in
  let reset =
    match reset, ann.reset with
    | Some r, _ -> r
    | None, Some r -> r
    | None, None -> fail "no reset: add a '// avp reset <net>' directive"
  in
  let find_net name =
    match Hashtbl.find_opt d.Elab.by_name name with
    | Some id -> id
    | None -> fail "annotated net %s does not exist" name
  in
  let clock_id = find_net clock and reset_id = find_net reset in
  let state_nets =
    Array.to_list d.Elab.nets
    |> List.filter is_state
    |> List.map (fun (n : Elab.enet) -> n.Elab.id)
  in
  if state_nets = [] then fail "no '// avp state' annotations found";
  (* Latches must be part of the state. *)
  let latches = Latch.analyze d in
  let unannotated_latches =
    List.filter (fun (l : Latch.latch) -> not (is_state l.Latch.net)) latches
  in
  (match unannotated_latches with
   | [] -> ()
   | ls ->
     fail "inferred latches must be annotated '// avp state': %s"
       (String.concat ", "
          (List.map (fun (l : Latch.latch) -> l.Latch.net.Elab.name) ls)));
  let stop id = id = clock_id || id = reset_id in
  let cone = compute_cone d ~roots:state_nets ~stop in
  (* Closure checks.  Every declared free becomes a choice variable
     whether or not it currently feeds the cone: the abstract blocks
     are part of the model's interface, which keeps models of design
     variants comparable (e.g. for product-machine checking). *)
  let state_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace state_set id ()) state_nets;
  let free_ids = ref [] in
  let problems = ref [] in
  Array.iter
    (fun (net : Elab.enet) ->
      let id = net.Elab.id in
      let is_free = Hashtbl.mem ann.frees net.Elab.name in
      if is_free && not (stop id) then free_ids := id :: !free_ids;
      if cone.nets.(id) && not (stop id) then begin
        let annotated_state = Hashtbl.mem state_set id in
        let is_tied = Hashtbl.mem ann.ties net.Elab.name in
        if cone.seq_written.(id) && not annotated_state then
          problems :=
            Printf.sprintf
              "sequential register %s is in the control cone but not \
               annotated state"
              net.Elab.name
            :: !problems;
        let has_writer =
          cone.seq_written.(id)
          || Array.exists
               (fun p -> List.mem id (process_writes p))
               d.Elab.processes
        in
        if (not has_writer) && not (is_free || is_tied) then
          problems :=
            Printf.sprintf
              "input %s feeds the control cone but is neither free nor tied"
              net.Elab.name
            :: !problems
      end)
    d.Elab.nets;
  (match !problems with
   | [] -> ()
   | ps -> fail "control cone is not closed:\n  %s"
             (String.concat "\n  " (List.rev ps)));
  let free_ids = List.rev !free_ids in
  (* Variable construction (stable order: net id). *)
  let state_bindings =
    state_nets
    |> List.sort Int.compare
    |> List.map (fun id ->
           { var = var_of_net d.Elab.nets.(id); net = d.Elab.nets.(id) })
    |> Array.of_list
  in
  let choice_bindings =
    free_ids
    |> List.sort Int.compare
    |> List.map (fun id ->
           { var = var_of_net d.Elab.nets.(id); net = d.Elab.nets.(id) })
    |> Array.of_list
  in
  let sim = Sim.create d in
  let tie_all () =
    Hashtbl.iter
      (fun name v ->
        let id = find_net name in
        Sim.poke_id sim id
          (Bv.of_int ~width:d.Elab.nets.(id).Elab.width (max v 0)))
      ann.ties
  in
  (* An HDL step needs all its inputs, so every choice is read.  Loops
     rather than iterators: these run once per simulated cycle. *)
  let poke_choices read =
    for i = 0 to Array.length choice_bindings - 1 do
      let net = choice_bindings.(i).net in
      Sim.poke_id sim net.Elab.id (bv_of_value ~width:net.Elab.width (read i))
    done
  in
  let read_states_into what dst =
    for i = 0 to Array.length state_bindings - 1 do
      let net = state_bindings.(i).net in
      let v = Sim.get_id sim net.Elab.id in
      if not (Bv.is_defined v) then
        fail "state net %s is undefined (%s) after %s" net.Elab.name
          (Bv.to_string v) what;
      dst.(i) <- value_of_bv v
    done
  in
  let nstates = Array.length state_bindings in
  (* Reset state. *)
  tie_all ();
  Sim.poke_id sim reset_id (Bv.of_int ~width:1 1);
  poke_choices (fun _ -> 0);
  for _ = 1 to reset_cycles do
    Sim.step sim clock
  done;
  Sim.poke_id sim reset_id (Bv.of_int ~width:1 0);
  let reset_state = Array.make nstates 0 in
  read_states_into "reset" reset_state;
  let next_into state read dst =
    Sim.poke_id sim reset_id (Bv.of_int ~width:1 0);
    tie_all ();
    for i = 0 to nstates - 1 do
      let net = state_bindings.(i).net in
      Sim.poke_id sim net.Elab.id (bv_of_value ~width:net.Elab.width state.(i))
    done;
    poke_choices read;
    Sim.step sim clock;
    read_states_into "step" dst
  in
  let next state choices =
    let dst = Array.make nstates 0 in
    next_into state (Array.get choices) dst;
    dst
  in
  let model =
    (* [next] steps the one shared simulator instance. *)
    Model.create ~name:d.Elab.top
      ~state_vars:(Array.to_list (Array.map (fun b -> b.var) state_bindings))
      ~choice_vars:(Array.to_list (Array.map (fun b -> b.var) choice_bindings))
      ~reset:(Array.to_list reset_state)
      ~next ~next_into ()
  in
  { model; state_bindings; choice_bindings; elab = d; clock; reset; latches }
