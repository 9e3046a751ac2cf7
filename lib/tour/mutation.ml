open Uio

type kind = Output | Transfer

type mutant = {
  kind : kind;
  src : int;
  input : int;
  machine : Mealy.t;
}

let output_alphabet (m : Mealy.t) =
  let set = Hashtbl.create 8 in
  for s = 0 to m.Mealy.states - 1 do
    for i = 0 to m.Mealy.inputs - 1 do
      Hashtbl.replace set (m.Mealy.output s i) ()
    done
  done;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) set [])

let mutants (m : Mealy.t) =
  let alphabet = output_alphabet m in
  let out = ref [] in
  for s = 0 to m.Mealy.states - 1 do
    for i = 0 to m.Mealy.inputs - 1 do
      (* Output mutants: every other output value. *)
      List.iter
        (fun o ->
          if o <> m.Mealy.output s i then
            out :=
              {
                kind = Output;
                src = s;
                input = i;
                machine =
                  { m with
                    Mealy.output =
                      (fun s' i' ->
                        if s' = s && i' = i then o else m.Mealy.output s' i')
                  };
              }
              :: !out)
        alphabet;
      (* Transfer mutants: every other destination. *)
      for t = 0 to m.Mealy.states - 1 do
        if t <> m.Mealy.next s i then
          out :=
            {
              kind = Transfer;
              src = s;
              input = i;
              machine =
                { m with
                  Mealy.next =
                    (fun s' i' ->
                      if s' = s && i' = i then t else m.Mealy.next s' i')
                };
            }
            :: !out
      done
    done
  done;
  List.rev !out

(* Behavioural equivalence from the reset states: BFS over state
   pairs, comparing outputs on every input. *)
let equivalent_mutant (spec : Mealy.t) (mut : mutant) =
  let impl = mut.machine in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace seen (0, 0) ();
  Queue.add (0, 0) queue;
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let a, b = Queue.pop queue in
    for i = 0 to spec.Mealy.inputs - 1 do
      if spec.Mealy.output a i <> impl.Mealy.output b i then ok := false
      else begin
        let p = (spec.Mealy.next a i, impl.Mealy.next b i) in
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.replace seen p ();
          Queue.add p queue
        end
      end
    done
  done;
  !ok

(* Transition tours of the specification: all-conditions enumeration
   so every (state, input) pair is an arc, then the paper's greedy
   generator.  The result is the list of input sequences, one per
   trace. *)
let tour_inputs (m : Mealy.t) =
  let model =
    Avp_fsm.Model.create ~name:"mealy"
      ~state_vars:
        [ Avp_fsm.Model.var "s" (Array.init m.Mealy.states string_of_int) ]
      ~choice_vars:
        [ Avp_fsm.Model.var "i" (Array.init m.Mealy.inputs string_of_int) ]
      ~reset:[ 0 ]
      ~next:(fun st ch -> [| m.Mealy.next st.(0) ch.(0) |])
      ()
  in
  let graph = Avp_enum.State_graph.enumerate ~all_conditions:true model in
  let tours = Tour_gen.generate graph in
  Array.to_list tours.Tour_gen.traces
  |> List.map (fun trace ->
         Array.to_list trace
         |> List.map (fun (st : Tour_gen.step) -> st.Tour_gen.choice))

let kills_by_replay (spec : Mealy.t) (impl : Mealy.t) sequences =
  List.exists
    (fun inputs ->
      Mealy.output_trace spec 0 inputs <> Mealy.output_trace impl 0 inputs)
    sequences

let tour_kills (spec : Mealy.t) (mut : mutant) =
  kills_by_replay spec mut.machine (tour_inputs spec)

let checking_kills experiment (mut : mutant) =
  match Checking.run experiment mut.machine with
  | Checking.Conforms -> false
  | Checking.Fails _ -> true

type score = {
  total : int;
  equivalent : int;
  tour_killed : int;
  checking_killed : int;
}

let score ?(uio_max_len = 8) (m : Mealy.t) =
  let experiment = Checking.build ~uio_max_len m in
  let sequences = tour_inputs m in
  let all = mutants m in
  List.fold_left
    (fun acc mut ->
      {
        total = acc.total + 1;
        equivalent =
          (acc.equivalent + if equivalent_mutant m mut then 1 else 0);
        tour_killed =
          (acc.tour_killed
          + if kills_by_replay m mut.machine sequences then 1 else 0);
        checking_killed =
          (acc.checking_killed + if checking_kills experiment mut then 1
           else 0);
      })
    { total = 0; equivalent = 0; tour_killed = 0; checking_killed = 0 }
    all

