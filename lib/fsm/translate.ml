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

let translate (d : Elab.t) =
  let ann = Elab.annotations d in
  let ties = Hashtbl.create 8 in
  List.iter
    (fun (name, value) ->
      match value with
      | Ok v -> Hashtbl.replace ties name v
      | Error complaint -> fail "%s" complaint)
    ann.Elab.ties;
  let clock =
    match ann.Elab.clock with
    | Some c -> c
    | None -> fail "no clock: add a '// avp clock <net>' directive"
  in
  let reset =
    match ann.Elab.reset with
    | Some r -> r
    | None -> fail "no reset: add a '// avp reset <net>' directive"
  in
  let is_state (net : Elab.enet) = ann.Elab.states.(net.Elab.id) in
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
      let is_free = List.mem net.Elab.name ann.Elab.frees in
      if is_free && not (stop id) then free_ids := id :: !free_ids;
      if cone.nets.(id) && not (stop id) then begin
        let annotated_state = Hashtbl.mem state_set id in
        let is_tied = Hashtbl.mem ties net.Elab.name in
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
  let ties =
    Hashtbl.fold (fun name v acc -> (find_net name, max v 0) :: acc) ties []
    |> Array.of_list
  in
  let low = Bv.of_int ~width:1 0 in
  let nstates = Array.length state_bindings in
  let nfree = Array.length choice_bindings in
  let poke_value id v =
    Sim.poke_id sim id (bv_of_value ~width:d.Elab.nets.(id).Elab.width v)
  in
  (* An HDL step needs all its inputs, so every choice is poked.  Loops
     rather than iterators: these run once per simulated cycle. *)
  let poke_choices values =
    for i = 0 to nfree - 1 do
      poke_value choice_bindings.(i).net.Elab.id values.(i)
    done
  in
  let read_states_into what dst =
    for i = 0 to nstates - 1 do
      let net = state_bindings.(i).net in
      let v = Sim.get_id sim net.Elab.id in
      if not (Bv.is_defined v) then
        fail "state net %s is undefined (%s) after %s" net.Elab.name
          (Bv.to_string v) what;
      dst.(i) <- value_of_bv v
    done
  in
  (* The combinational blocks that write latch state nets, as units
     ([Compile.units] numbers comb block [i], in process order, net
     count + [i]).  Poking a latch's stored value does not re-run its
     writer, so each step re-runs it: while the latch is transparent
     its value then follows its inputs whatever the previous call
     poked. *)
  let latch_units =
    List.sort_uniq Int.compare
      (List.map
         (fun (l : Latch.latch) ->
           let block = ref 0 in
           for p = 0 to l.Latch.process_index - 1 do
             match d.Elab.processes.(p) with
             | Elab.Comb _ -> incr block
             | Elab.Assign _ | Elab.Seq _ -> ()
           done;
           Array.length d.Elab.nets + !block)
         latches)
    |> Array.of_list
  in
  (* The scalar step: one transition on the one shared simulator. *)
  let step_into state choices dst =
    Sim.poke_id sim reset_id low;
    Array.iter (fun (id, v) -> poke_value id v) ties;
    for i = 0 to nstates - 1 do
      poke_value state_bindings.(i).net.Elab.id state.(i)
    done;
    poke_choices choices;
    Array.iter (Sim.rerun_unit sim) latch_units;
    Sim.step sim clock;
    read_states_into "step" dst
  in
  (* Reset state. *)
  Array.iter (fun (id, v) -> poke_value id v) ties;
  Sim.poke_id sim reset_id (Bv.of_int ~width:1 1);
  poke_choices (Array.make nfree 0);
  Sim.step sim clock;
  Sim.poke_id sim reset_id low;
  let reset_state = Array.make nstates 0 in
  read_states_into "reset" reset_state;
  (* A state's successor keys ([Model.pack]'s) on the bit-sliced
     kernel, one block of [lanes] choices per step: lane [l] of block
     [b] takes choice [lanes * b + l] (the last block repeats the last
     choice in its spare lanes), with the reset, the ties and the state
     broadcast.  The kernel and every block's choice stimulus are built
     on the first call: [block_bits] words per block, word [bit_off.(i)
     + j] holding the lanes whose choice variable [i] has bit [j] set.
     The lanes flagged after a step re-run on the scalar step, so that
     its result and its message stay the oracle's: those whose state
     nets came out undefined, all of them when the step raised, and
     every lane of a design [Sliced.create] rejects.  [Model.pack_digits]
     then packs the block's keys from its lanes' successors. *)
  let card = Array.map (fun b -> Model.card b.var) choice_bindings in
  let nchoices = Array.fold_left ( * ) 1 card in
  let lanes = min Bv_sliced.lanes_limit nchoices in
  let nblocks = (nchoices + lanes - 1) / lanes in
  let bit_off = Array.make (nfree + 1) 0 in
  for i = 0 to nfree - 1 do
    bit_off.(i + 1) <- bit_off.(i) + choice_bindings.(i).net.Elab.width
  done;
  let block_bits = bit_off.(nfree) in
  let choice = Array.make nfree 0 in
  let decode c =
    let rem = ref c in
    for i = nfree - 1 downto 0 do
      choice.(i) <- !rem mod card.(i);
      rem := !rem / card.(i)
    done
  in
  let stimulus () =
    let words = Array.make (nblocks * block_bits) 0 in
    for c = 0 to (nblocks * lanes) - 1 do
      decode (min c (nchoices - 1));
      let base = c / lanes * block_bits and lane = 1 lsl (c mod lanes) in
      for i = 0 to nfree - 1 do
        for j = 0 to bit_off.(i + 1) - bit_off.(i) - 1 do
          if (choice.(i) lsr j) land 1 = 1 then begin
            let w = base + bit_off.(i) + j in
            words.(w) <- words.(w) lor lane
          end
        done
      done
    done;
    words
  in
  let kernel =
    lazy (Option.map (fun k -> (k, stimulus ())) (Sliced.create ~lanes d))
  in
  (* [values.(i).(l)]: state variable [i] of lane [l]'s successor. *)
  let values = Array.init nstates (fun _ -> Array.make lanes 0) in
  (* One kernel step of block [b]; the lanes it flags. *)
  let run_block k words state b =
    try
      Sliced.poke_int k reset_id 0;
      for i = 0 to Array.length ties - 1 do
        let id, v = ties.(i) in
        Sliced.poke_int k id v
      done;
      for i = 0 to nstates - 1 do
        Sliced.poke_int k state_bindings.(i).net.Elab.id state.(i)
      done;
      for i = 0 to nfree - 1 do
        Sliced.poke_words k choice_bindings.(i).net.Elab.id words
          ((b * block_bits) + bit_off.(i))
      done;
      for u = 0 to Array.length latch_units - 1 do
        Sliced.rerun_unit k latch_units.(u)
      done;
      Sliced.step k clock_id;
      let undefined = ref 0 in
      for i = 0 to nstates - 1 do
        undefined :=
          !undefined
          lor Sliced.get_ints k state_bindings.(i).net.Elab.id values.(i)
      done;
      !undefined
    with _ ->
      Sliced.reinit k;
      Sliced.amask k
  in
  let succ = Array.make nstates 0 in
  let successor_keys state keys =
    let kernel = Lazy.force kernel in
    for b = 0 to nblocks - 1 do
      let first = b * lanes in
      let n = min lanes (nchoices - first) in
      let flagged =
        match kernel with
        | Some (k, words) -> run_block k words state b
        | None -> -1
      in
      for l = 0 to n - 1 do
        if (flagged lsr l) land 1 = 1 then begin
          decode (first + l);
          step_into state choice succ;
          for i = 0 to nstates - 1 do
            values.(i).(l) <- succ.(i)
          done
        end
      done;
      Array.fill keys first n 0;
      for i = 0 to nstates - 1 do
        Model.pack_digits state_bindings.(i).var keys first values.(i) n
      done
    done
  in
  let next state choices =
    let dst = Array.make nstates 0 in
    step_into state choices dst;
    dst
  in
  let model =
    Model.create ~name:d.Elab.top
      ~state_vars:(Array.to_list (Array.map (fun b -> b.var) state_bindings))
      ~choice_vars:(Array.to_list (Array.map (fun b -> b.var) choice_bindings))
      ~reset:(Array.to_list reset_state)
      ~next ~successor_keys ()
  in
  { model; state_bindings; choice_bindings; elab = d; clock; reset; latches }
