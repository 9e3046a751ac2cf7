open Uio

type subtest = {
  src : int;
  input : int;
  expected_output : int;
  preamble : int list;
  uio : int list;
}

type experiment = {
  spec : Mealy.t;
  subtests : subtest list;
}

exception No_uio of int

(* Shortest input word from [from] to every reachable state (BFS). *)
let preambles (m : Mealy.t) ~from =
  let n = m.Mealy.states in
  let word = Array.make n None in
  word.(from) <- Some [];
  let queue = Queue.create () in
  Queue.add from queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let w = Option.get word.(s) in
    for i = 0 to m.Mealy.inputs - 1 do
      let t = m.Mealy.next s i in
      if word.(t) = None then begin
        word.(t) <- Some (w @ [ i ]);
        Queue.add t queue
      end
    done
  done;
  word

let build (m : Mealy.t) =
  let reach = preambles m ~from:0 in
  let uios =
    Array.init m.Mealy.states (fun s ->
        if reach.(s) = None then None else uio m ~state:s ~max_len:8)
  in
  let subtests = ref [] in
  for s = m.Mealy.states - 1 downto 0 do
    match reach.(s) with
    | None -> ()  (* unreachable source: nothing to test *)
    | Some preamble ->
      for i = m.Mealy.inputs - 1 downto 0 do
        let t = m.Mealy.next s i in
        let uio_t =
          match uios.(t) with Some u -> u | None -> raise (No_uio t)
        in
        subtests :=
          {
            src = s;
            input = i;
            expected_output = m.Mealy.output s i;
            preamble;
            uio = uio_t;
          }
          :: !subtests
      done
  done;
  { spec = m; subtests = !subtests }

let total_inputs e =
  List.fold_left
    (fun acc st ->
      acc + List.length st.preamble + 1 + List.length st.uio)
    0 e.subtests

type verdict =
  | Conforms
  | Fails of {
      subtest : subtest;
      at : [ `Transition | `Uio of int ];
      expected : int;
      got : int;
    }

let run (e : experiment) (impl : Mealy.t) =
  let rec subtests = function
    | [] -> Conforms
    | st :: rest ->
      (* Preamble: drive the implementation blind (outputs unchecked —
         the classic method assumes a reliable reset and transfers). *)
      let s_impl =
        List.fold_left (fun s i -> impl.Mealy.next s i) 0 st.preamble
      in
      (* The transition under test. *)
      let got = impl.Mealy.output s_impl st.input in
      if got <> st.expected_output then
        Fails { subtest = st; at = `Transition;
                expected = st.expected_output; got }
      else begin
        let s_impl = impl.Mealy.next s_impl st.input in
        (* Destination verification via the UIO signature. *)
        let spec_dst =
          e.spec.Mealy.next
            (List.fold_left
               (fun s i -> e.spec.Mealy.next s i)
               0 st.preamble)
            st.input
        in
        let expected_sig = Mealy.output_trace e.spec spec_dst st.uio in
        let got_sig = Mealy.output_trace impl s_impl st.uio in
        let rec cmp k es gs =
          match es, gs with
          | [], [] -> subtests rest
          | e0 :: es', g0 :: gs' ->
            if e0 <> g0 then
              Fails { subtest = st; at = `Uio k; expected = e0; got = g0 }
            else cmp (k + 1) es' gs'
          | _ -> assert false
        in
        cmp 0 expected_sig got_sig
      end
  in
  subtests e.subtests

let pp_verdict ppf = function
  | Conforms -> Format.pp_print_string ppf "conforms"
  | Fails { subtest; at; expected; got } ->
    Format.fprintf ppf
      "fails at transition (s%d, input %d) %s: expected %d, got %d"
      subtest.src subtest.input
      (match at with
       | `Transition -> "output"
       | `Uio k -> Printf.sprintf "UIO step %d" k)
      expected got
