(* Model checker-lite over {!Avp_fsm.Model}.

   The transition function is a black box, so "static" here means a
   cartesian abstract interpretation: track a per-state-variable set
   of possibly-reachable values, and evaluate every choice combination
   on every tuple in the product of those sets, to a fixpoint.  The
   abstraction over-approximates the concrete reachable set, so every
   claim of the form "value v is unreachable" is sound:
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
  evals : int;  (* choices of the tuples whose successors came back *)
  findings : Finding.t list;
}

let max_evals = 2_000_000

let analyze (m : Model.t) : result =
  let nvars = Array.length m.Model.state_vars in
  let ncvars = Array.length m.Model.choice_vars in
  let card i = Model.card m.Model.state_vars.(i) in
  let reach = Array.init nvars (fun i -> Array.make (card i) false) in
  Array.iteri (fun i v -> reach.(i).(v) <- true) m.Model.reset;
  let nchoices = Model.num_choices m in
  let choices = Array.init nchoices (Model.choice_of_index m) in
  (* [successors tuple sid] evaluates every choice on [tuple] and writes
     into [sid.(c)] the number of choice [c]'s successor among the
     tuple's distinct successors, numbered in choice order; once all of
     them came back, it marks their values reachable and returns the
     number of [tuple] itself, or -1.  On a model with a whole-state
     entry point the successors are packed keys, all choices in one
     call (a translated model answers 62 per simulator step); else
     valuations, one [next_into] per choice, so that a model whose
     states do not pack into an int is analysed too. *)
  let successors =
    match m.Model.successor_keys with
    | Some keys ->
      let succ = Array.make nchoices 0 in
      let ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let valuation = Array.make nvars 0 in
      fun tuple sid ->
        keys tuple succ;
        Hashtbl.clear ids;
        for c = 0 to nchoices - 1 do
          sid.(c) <-
            (match Hashtbl.find ids succ.(c) with
             | id -> id
             | exception Not_found ->
               let id = Hashtbl.length ids in
               Hashtbl.add ids succ.(c) id;
               id)
        done;
        Hashtbl.iter
          (fun k _ ->
            Model.unpack m k valuation;
            Array.iteri (fun i v -> reach.(i).(v) <- true) valuation)
          ids;
        Option.value ~default:(-1) (Hashtbl.find_opt ids (Model.pack m tuple))
    | None ->
      let ids : int Model.Tbl.t = Model.Tbl.create 64 in
      let s = Array.make nvars 0 in
      fun tuple sid ->
        Model.Tbl.clear ids;
        for c = 0 to nchoices - 1 do
          m.Model.next_into tuple (Array.get choices.(c)) s;
          sid.(c) <-
            (match Model.Tbl.find ids s with
             | id -> id
             | exception Not_found ->
               let id = Model.Tbl.length ids in
               Model.Tbl.add ids (Array.copy s) id;
               id)
        done;
        Model.Tbl.iter
          (fun s _ ->
            Array.iteri
              (fun i v -> if v >= 0 && v < card i then reach.(i).(v) <- true)
              s)
          ids;
        Option.value ~default:(-1) (Model.Tbl.find_opt ids tuple)
  in
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
  let seen : unit Model.Tbl.t = Model.Tbl.create 1024 in
  let capped = ref false in
  let evals = ref 0 in
  let var_affects = Array.make ncvars false in
  (* Partition of choice indices by observable behaviour, refined per
     explored tuple; two indices in one final class are
     indistinguishable everywhere explored.  The refined class of [c]
     is the pair of its class and its successor's number, numbered in
     choice order. *)
  let cls = Array.make (max nchoices 1) 0 in
  let nclasses = ref (min nchoices 1) in
  let sinks = ref [] in
  let sid = Array.make nchoices 0 in
  let refined : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let expand tuple =
    if !evals + nchoices > max_evals then capped := true
    else
      match successors tuple sid with
      | exception (Stack_overflow | Out_of_memory as e) -> raise e
      | exception _ -> capped := true
      | own ->
        evals := !evals + nchoices;
        Hashtbl.clear refined;
        for c = 0 to nchoices - 1 do
          let pair = (cls.(c) * nchoices) + sid.(c) in
          cls.(c) <-
            (match Hashtbl.find refined pair with
             | id -> id
             | exception Not_found ->
               let id = Hashtbl.length refined in
               Hashtbl.add refined pair id;
               id)
        done;
        if nchoices > 1 then nclasses := Hashtbl.length refined;
        if nchoices > 0 && Array.for_all (fun id -> id = own) sid then
          sinks := Array.copy tuple :: !sinks;
        for k = 0 to ncvars - 1 do
          if not var_affects.(k) then
            (try
               for c = 0 to nchoices - 1 do
                 if sid.(c) <> sid.(zero_proj.(k).(c)) then begin
                   var_affects.(k) <- true;
                   raise Exit
                 end
               done
             with Exit -> ())
        done
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
      if not (Model.Tbl.mem seen tuple) then begin
        Model.Tbl.replace seen (Array.copy tuple) ();
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
