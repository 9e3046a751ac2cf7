(* Model checker-lite over {!Avp_fsm.Model}.

   The transition function is a black box, so "static" here means a
   cartesian abstract interpretation: track a per-state-variable set
   of possibly-reachable values, and iterate [next_into] over every tuple
   in the product of those sets (times every choice combination) to a
   fixpoint.  The abstraction over-approximates the concrete reachable
   set, so every claim of the form "value v is unreachable" is sound:
   statically-unreachable is a subset of dynamically-unreachable, which
   the enumerator cross-check in the test suite verifies on pp_control.

   When the product blows past the evaluation budget — or the transition
   raises, as HDL-backed models can on abstract states the simulator
   never produces — the analysis marks itself capped and emits no
   claims at all rather than unsound ones. *)

open Avp_fsm

type result = {
  model : Model.t;
  reachable_values : bool array array;
      (* state var index -> value -> possibly reachable *)
  sinks : int array list;  (* abstract tuples every choice maps to self *)
  capped : bool;
  evals : int;  (* transition-function evaluations performed *)
  findings : Finding.t list;
}

let analyze ?(max_evals = 2_000_000) (m : Model.t) : result =
  let nvars = Array.length m.Model.state_vars in
  let ncvars = Array.length m.Model.choice_vars in
  let card i = Model.card m.Model.state_vars.(i) in
  let reach = Array.init nvars (fun i -> Array.make (card i) false) in
  Array.iteri (fun i v -> reach.(i).(v) <- true) m.Model.reset;
  let nchoices = Model.num_choices m in
  let choices = Array.init nchoices (Model.choice_of_index m) in
  (* [zero_proj.(k).(c)]: choice index [c] with coordinate [k] forced
     to 0 — used to detect choice variables with no observable
     effect. *)
  let zero_proj =
    Array.init ncvars (fun k ->
        Array.init nchoices (fun c ->
            let cv = Array.copy choices.(c) in
            cv.(k) <- 0;
            Model.index_of_choice m cv))
  in
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 1024 in
  let capped = ref false in
  let evals = ref 0 in
  let var_affects = Array.make ncvars false in
  (* Partition of choice indices by observable behaviour, refined per
     explored tuple; two indices in one final class are
     indistinguishable everywhere explored. *)
  let cls = Array.make (max nchoices 1) 0 in
  let nclasses = ref (min nchoices 1) in
  let sinks = ref [] in
  let expand tuple =
    if !evals + nchoices > max_evals then capped := true
    else begin
      let succ = Array.make nchoices [||] in
      (* In choice order through [next_into], which a model can answer
         many choices at a time (a translated one, 62 per step). *)
      (try
         for c = 0 to nchoices - 1 do
           let s = Array.make nvars 0 in
           m.Model.next_into tuple (Array.get choices.(c)) s;
           succ.(c) <- s;
           incr evals
         done
       with Stack_overflow | Out_of_memory as e -> raise e
          | _ -> capped := true);
      if not !capped then begin
        Array.iter
          (fun s ->
            Array.iteri
              (fun i v ->
                if v >= 0 && v < card i then reach.(i).(v) <- true)
              s)
          succ;
        if nchoices > 0 && Array.for_all (fun s -> s = tuple) succ then
          sinks := Array.copy tuple :: !sinks;
        for k = 0 to ncvars - 1 do
          if not var_affects.(k) then
            (try
               for c = 0 to nchoices - 1 do
                 if succ.(c) <> succ.(zero_proj.(k).(c)) then begin
                   var_affects.(k) <- true;
                   raise Exit
                 end
               done
             with Exit -> ())
        done;
        if nchoices > 1 then begin
          let tbl = Hashtbl.create 16 in
          let counter = ref 0 in
          let next_cls = Array.make nchoices 0 in
          for c = 0 to nchoices - 1 do
            let key = (cls.(c), Array.to_list succ.(c)) in
            let id =
              match Hashtbl.find_opt tbl key with
              | Some id -> id
              | None ->
                let id = !counter in
                incr counter;
                Hashtbl.add tbl key id;
                id
            in
            next_cls.(c) <- id
          done;
          Array.blit next_cls 0 cls 0 nchoices;
          nclasses := !counter
        end
      end
    end
  in
  (* Fixpoint: each round walks the product of the current value
     sets; values discovered mid-round surface as fresh tuples next
     round.  A round with no new tuple is the fixpoint. *)
  let progressed = ref true in
  while !progressed && not !capped do
    progressed := false;
    let values =
      Array.init nvars (fun i ->
          let vs = ref [] in
          for v = card i - 1 downto 0 do
            if reach.(i).(v) then vs := v :: !vs
          done;
          Array.of_list !vs)
    in
    let idx = Array.make nvars 0 in
    let tuple = Array.make nvars 0 in
    let more = ref true in
    while !more && not !capped do
      for i = 0 to nvars - 1 do
        tuple.(i) <- values.(i).(idx.(i))
      done;
      if not (Hashtbl.mem seen tuple) then begin
        Hashtbl.replace seen (Array.copy tuple) ();
        progressed := true;
        expand tuple
      end;
      let rec bump i =
        if i < 0 then more := false
        else begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) >= Array.length values.(i) then begin
            idx.(i) <- 0;
            bump (i - 1)
          end
        end
      in
      bump (nvars - 1)
    done
  done;
  let fs = ref [] in
  if !capped then
    fs :=
      [ Finding.make Finding.Warning "fsm-check-capped"
          (Printf.sprintf
             "abstract exploration hit its budget or the transition \
              function raised (%d evaluations done): FSM checks skipped \
              to avoid unsound claims"
             !evals) ]
  else begin
    Array.iteri
      (fun i (var : Model.var) ->
        Array.iteri
          (fun v r ->
            if not r then
              fs :=
                Finding.make ~net_id:i ~net:var.Model.name Finding.Warning
                  "fsm-unreachable"
                  (Printf.sprintf
                     "state variable can never take value '%s' (statically \
                      unreachable from reset)"
                     var.Model.values.(v))
                :: !fs)
          reach.(i))
      m.Model.state_vars;
    let sinks_l = List.rev !sinks in
    let nsinks = List.length sinks_l in
    List.iteri
      (fun k s ->
        if k < 5 then
          fs :=
            Finding.make ~net_id:k Finding.Warning "fsm-sink"
              (Format.asprintf
                 "sink state {%a}: every choice combination maps it to \
                  itself%s"
                 (Model.pp_state m) s
                 (if nsinks > 5 && k = 4 then
                    Printf.sprintf " (and %d more sinks)" (nsinks - 5)
                  else ""))
            :: !fs)
      sinks_l;
    Array.iteri
      (fun k (cv : Model.var) ->
        if (not var_affects.(k)) && Model.card cv > 1 then
          fs :=
            Finding.make ~net_id:k ~net:cv.Model.name Finding.Warning
              "fsm-dead-choice"
              "choice variable never affects any successor state: the \
               nondeterminism is vacuous"
            :: !fs)
      m.Model.choice_vars;
    if
      nchoices > 1
      && !nclasses < nchoices
      && Array.for_all Fun.id var_affects
    then
      fs :=
        Finding.make Finding.Warning "fsm-choice-overlap"
          (Printf.sprintf
             "only %d of %d choice combinations are distinguishable: \
              distinct nondeterministic choices overlap in behaviour"
             !nclasses nchoices)
        :: !fs
  end;
  {
    model = m;
    reachable_values = reach;
    sinks = List.rev !sinks;
    capped = !capped;
    evals = !evals;
    findings = Finding.sort !fs;
  }

let findings r = r.findings
