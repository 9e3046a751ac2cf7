type divergence = {
  impl_state : int array;
  spec_state : int array;
  witness : int array list;
}

exception Choice_mismatch of string

let check_choices (impl : Model.t) (spec : Model.t) =
  let a = impl.Model.choice_vars and b = spec.Model.choice_vars in
  if Array.length a <> Array.length b then
    raise
      (Choice_mismatch
         (Printf.sprintf "impl has %d choice vars, spec has %d"
            (Array.length a) (Array.length b)));
  Array.iteri
    (fun i va ->
      let vb = b.(i) in
      if va.Model.name <> vb.Model.name || Model.card va <> Model.card vb
      then
        raise
          (Choice_mismatch
             (Printf.sprintf "choice var %d: impl %s/%d vs spec %s/%d" i
                va.Model.name (Model.card va) vb.Model.name (Model.card vb))))
    a

let compare ~(impl : Model.t) ~(spec : Model.t) ~impl_obs ~spec_obs () =
  check_choices impl spec;
  let num_choices = Model.num_choices impl in
  let choices =
    Array.init num_choices (fun i -> Model.choice_of_index impl i)
  in
  (* BFS over the product space with parent pointers for witnesses:
     every visited pair has an entry, the start pair's without a
     parent.  A pair's key is its two valuations end to end, which
     keys each pair once since every impl valuation has impl's
     length. *)
  let key (si, ss) = Array.append si ss in
  let parents = Model.Tbl.create 4096 in
  let queue = Queue.create () in
  let start = (impl.Model.reset, spec.Model.reset) in
  Model.Tbl.add parents (key start) None;
  Queue.add start queue;
  let witness_of pair =
    let rec build pair acc =
      match Model.Tbl.find parents (key pair) with
      | None -> acc
      | Some (prev, choice) -> build prev (choice :: acc)
    in
    build pair []
  in
  let divergence = ref None in
  (if impl_obs (fst start) <> spec_obs (snd start) then
     divergence :=
       Some { impl_state = fst start; spec_state = snd start; witness = [] });
  while !divergence = None && not (Queue.is_empty queue) do
    let (si, ss) as cur = Queue.pop queue in
    let ci = ref 0 in
    while !divergence = None && !ci < num_choices do
      let choice = choices.(!ci) in
      incr ci;
      let ni = impl.Model.next si choice in
      let ns = spec.Model.next ss choice in
      let nxt = (ni, ns) in
      let k = key nxt in
      if not (Model.Tbl.mem parents k) then begin
        if Model.Tbl.length parents >= 1_000_000 then
          failwith "Product.compare: state bound exceeded";
        Model.Tbl.add parents k (Some (cur, choice));
        if impl_obs ni <> spec_obs ns then
          divergence :=
            Some
              { impl_state = ni; spec_state = ns; witness = witness_of nxt }
        else Queue.add nxt queue
      end
    done
  done;
  !divergence
