open Avp_fsm
open Avp_enum

type classification =
  | Stillborn of string
  | Killed_static of string
  | Killed_absint of string
  | Killed of { by_tour : bool; by_random : bool; detail : string }
  | Equivalent
  | Survived of string

type result = { mutant : Gen.mutant; cls : classification }

type family_score = {
  family : Op.family;
  total : int;
  stillborn : int;
  killed_static : int;
  killed_absint : int;
  equivalent : int;
  killed_tour : int;
  killed_random : int;
  survived : int;
  candidates : int;
}

type report = {
  design : string;
  seed : int;
  total : int;
  results : result array;
  families : family_score list;
  candidates : int;
  tour_killed : int;
  random_killed : int;
  tour_rate : float;
  random_rate : float;
  tour_cycles : int;
  random_cycles : int;
}

let class_name = function
  | Stillborn _ -> "stillborn"
  | Killed_static _ -> "killed-static"
  | Killed_absint _ -> "killed-absint"
  | Killed _ -> "killed"
  | Equivalent -> "equivalent"
  | Survived _ -> "survived"

(* ---------------------------------------------------------------- *)
(* Random baseline                                                  *)
(* ---------------------------------------------------------------- *)

let random_tours ~seed (graph : State_graph.t) (tours : Avp_tour.Tour_gen.t)
    =
  let rng = Random.State.make [| 0x6261736c; seed |] in
  let num_choices = Model.num_choices graph.State_graph.model in
  Avp_tour.Tour_gen.of_traces
    (Array.map
       (fun trace ->
         Avp_tour.Tour_gen.walk graph
           (Array.init (Array.length trace) (fun _ ->
                Random.State.int rng num_choices)))
       tours.Avp_tour.Tour_gen.traces)

(* ---------------------------------------------------------------- *)
(* Mutant detection                                                 *)
(* ---------------------------------------------------------------- *)

let output_ports (design : Avp_hdl.Ast.design) ~top =
  match Avp_hdl.Ast.find_module design top with
  | None -> [||]
  | Some m ->
    List.concat_map
      (function
        | Avp_hdl.Ast.Port_decl (Avp_hdl.Ast.Output, _, names, _) -> names
        | _ -> [])
      m.Avp_hdl.Ast.m_items
    |> Array.of_list

type oracle =
  | States of Avp_tour.Tour_gen.t
  | Outputs of string array

type phase = {
  vectors : Avp_vectors.Vector.t array;
  chains : oracle array array;
}

type outcome =
  | Clean
  | Mismatch of Avp_vectors.Replay.mismatch
  | Escape of string

let escaped msg = Escape ("checked net left the defined domain: " ^ msg)

let guard f =
  match f () with
  | Ok _ -> Clean
  | Error m -> Mismatch m
  | exception Translate.Unsupported msg ->
    (* The mutant drove a checked net to X/Z: the predicted/actual
       comparison itself becomes impossible — the Z-latch shape. *)
    escaped msg
  | exception e -> Escape ("replay raised: " ^ Printexc.to_string e)

(* One chain on the scalar engine: its oracles replay in order, and the
   first issue ends the chain.  [rows ()] are the pristine outputs'
   recorded rows for [vectors]. *)
let check_chain ~tr ~graph ~rows dut vectors chain =
  Array.fold_left
    (fun acc oracle ->
      match acc with
      | Clean ->
        guard (fun () ->
            match oracle with
            | States tours ->
              Avp_vectors.Replay.check ~dut ~vectors tr graph tours
            | Outputs nets ->
              Avp_vectors.Replay.check_nets ~dut tr ~nets ~predicted:(rows ())
                vectors)
      | issue -> issue)
    Clean chain

let detail = function
  | Clean -> None
  | Mismatch m -> Some (Format.asprintf "%a" Avp_vectors.Replay.pp_mismatch m)
  | Escape d -> Some d

(* Assemble the final classification from the two oracle outcomes
   ([Some detail] = caught). *)
let verdict ~graph ~dut tour random =
  match (tour, random) with
  | None, None -> (
    match Filter.equivalent ~pristine:graph dut with
    | `Equivalent -> Equivalent
    | `Different why | `Unknown why -> Survived why)
  | Some d, r -> Killed { by_tour = true; by_random = r <> None; detail = d }
  | None, Some d -> Killed { by_tour = false; by_random = true; detail = d }

(* ---------------------------------------------------------------- *)
(* Bit-sliced schemata passes                                       *)
(* ---------------------------------------------------------------- *)

(* One pass of a chunk of [k] mutants: every phase's traces in one
   queue on the chunk's kernel.  The kernel's lanes form slots of
   [k + 1] lanes, lane [s * (k + 1) + j] carrying mutant [j] and the
   slot's last lane the pristine design (its golden lane), and each
   slot replays its own trace ({!Avp_vectors.Slots}): the stimulus is
   broadcast within a slot, the slots take the queued traces side by
   side, and only the checks are per lane.  An output oracle compares
   each mutant lane with its slot's golden lane in the same step.
   [need] names the mutants whose outcome the caller will consume at
   all; the rest never simulate.  Returns, per chain (in phase order,
   then chain order) and mutant, the outcome the scalar [check_chain]
   would have produced, and the lowest (phase, trace) at which a golden
   lane read an output that cannot encode an int.

   Traces finish out of order, so outcomes are combined by trace index,
   per (chain, oracle, mutant), after the scalar replay, which runs
   every trace in order, stops a trace at its first issue, and lets an
   [Unsupported] escape end the whole replay:
   - a trace's first issue is at its lowest cycle, then at the first
     checked net; the lane is not checked again within that trace;
   - the lowest-trace escape wins over every mismatch, otherwise the
     lowest-trace mismatch wins, so a trace after a recorded escape no
     longer matters;
   - an oracle counts only while every earlier oracle of its chain is
     clean, so once one of them has an issue the mutant stops checking
     in every oracle after it.

   The pass exploits those rules for speed: a mutant lane that every
   chain of its phase is done with for the trace is frozen in the
   kernel (its nets stop toggling, so a chunk of dead mutants costs
   only the live lanes' settle activity).  In a phase with an output
   oracle the golden lane replays every trace and is never frozen, so
   the trace runs to its end and an x/z on a pristine output is seen
   wherever the interpreter's recording would raise it; a slot replaying
   a phase without one takes the next trace as soon as its mutant lanes
   are all frozen.  Independent chains and chained oracles
   alike watch the same simulation, which is sound because checks
   never perturb it. *)
type lane_oracle = {
  o_ids : Avp_hdl.Elab.uid array;
  o_names : string array;
  o_predict : (int -> int -> int -> int) option;
      (* trace -> cycle -> net -> value; [None]: the golden lane's *)
}

let sliced_pass sim tr ~k ~need ~traces ~chain_phase
    ~(chains : lane_oracle array array) ~has_outputs ~qphase ~qtrace
    (vectors : Avp_vectors.Vector.t array) =
  let module S = Avp_hdl.Sliced in
  let w = k + 1 in
  let slots = S.lanes sim / w in
  let nc = Array.length chains in
  let per_oracle f = Array.map (Array.map (fun _ -> f ())) chains in
  (* Per (chain, oracle, mutant): the lowest-trace escape and mismatch. *)
  let escape = per_oracle (fun () -> Array.make k None) in
  let mismatch = per_oracle (fun () -> Array.make k None) in
  let issue = per_oracle (fun () -> 0) in  (* mutants with an issue *)
  (* Per (chain, oracle): lanes done with their slot's current trace. *)
  let stopped = per_oracle (fun () -> 0) in
  let slot_q = Array.make slots (-1) in
  let golden_x = ref None in
  let escaped_before c o j t =
    match escape.(c).(o).(j) with Some (t', _) -> t' < t | None -> false
  in
  (* Mutant [j]'s lanes in the slots replaying a trace of chain [c]'s
     phase after [after] stop checking oracle [o]. *)
  let stop_mutant c o j ~after =
    for s = 0 to slots - 1 do
      let q = slot_q.(s) in
      if q >= 0 && qphase.(q) = chain_phase.(c) && qtrace.(q) > after then
        stopped.(c).(o) <- stopped.(c).(o) lor (1 lsl ((s * w) + j))
    done
  in
  let start ~slot q =
    slot_q.(slot) <- q;
    let p = qphase.(q) and t = qtrace.(q) in
    let lanes = ((1 lsl w) - 1) lsl (slot * w) in
    let live = ref (if has_outputs.(p) then 1 lsl ((slot * w) + k) else 0) in
    for c = 0 to nc - 1 do
      let stop = stopped.(c) in
      if chain_phase.(c) <> p then
        Array.iteri (fun o s -> stop.(o) <- s lor lanes) stop
      else begin
        let blocked = ref (lnot need) in
        for o = 0 to Array.length stop - 1 do
          stop.(o) <- stop.(o) land lnot lanes;
          for j = 0 to k - 1 do
            let bit = 1 lsl ((slot * w) + j) in
            if (!blocked lsr j) land 1 = 1 || escaped_before c o j t then
              stop.(o) <- stop.(o) lor bit
            else live := !live lor bit
          done;
          blocked := !blocked lor issue.(c).(o)
        done
      end
    done;
    if !live <> 0 then incr traces;
    !live
  in
  (* The first issue of lanes [flagged] of [slot] (trace [t]) in oracle
     [o] of chain [c], at net [vi] of [cycle]. *)
  let record_issue c o ~slot t cycle vi ~predicted flagged =
    let oc = chains.(c).(o) in
    stopped.(c).(o) <- stopped.(c).(o) lor flagged;
    for j = 0 to k - 1 do
      let lane = (slot * w) + j in
      if (flagged lsr lane) land 1 = 1 then begin
        (match Translate.value_of_bv (S.get_lane sim ~lane oc.o_ids.(vi)) with
         | actual -> (
           match mismatch.(c).(o).(j) with
           | Some (m : Avp_vectors.Replay.mismatch) when m.trace < t -> ()
           | _ ->
             mismatch.(c).(o).(j) <-
               Some
                 {
                   Avp_vectors.Replay.trace = t;
                   cycle;
                   net = oc.o_names.(vi);
                   actual;
                   predicted;
                 })
         | exception Translate.Unsupported msg ->
           if not (escaped_before c o j t) then begin
             escape.(c).(o).(j) <- Some (t, msg);
             stop_mutant c o j ~after:t
           end);
        issue.(c).(o) <- issue.(c).(o) lor (1 lsl j);
        for o' = o + 1 to Array.length chains.(c) - 1 do
          stop_mutant c o' j ~after:min_int
        done
      end
    done
  in
  let check ~slot q cycle =
    let p = qphase.(q) and t = qtrace.(q) in
    let lanes = ((1 lsl k) - 1) lsl (slot * w) and g = (slot * w) + k in
    let newly = ref false in
    for c = 0 to nc - 1 do
      if chain_phase.(c) = p then
        for o = 0 to Array.length chains.(c) - 1 do
          let oc = chains.(c).(o) in
          for vi = 0 to Array.length oc.o_ids - 1 do
            let m = lanes land lnot stopped.(c).(o) and id = oc.o_ids.(vi) in
            match oc.o_predict with
            | Some predict ->
              if m <> 0 then begin
                let predicted = predict t cycle vi in
                let flagged = S.check_net sim id ~mask:m ~predicted in
                if flagged <> 0 then begin
                  newly := true;
                  record_issue c o ~slot t cycle vi ~predicted flagged
                end
              end
            | None ->
              (* The golden lane is checked even when no mutant lane is:
                 an x/z there must not depend on the mutants. *)
              let flagged =
                S.check_lane sim id ~mask:(m lor (1 lsl g)) ~lane:g
              in
              if (flagged lsr g) land 1 = 1 then begin
                match !golden_x with
                | Some (p', t') when p' < p || (p' = p && t' <= t) -> ()
                | _ -> golden_x := Some (p, t)
              end
              else if flagged <> 0 then begin
                newly := true;
                let predicted =
                  Translate.value_of_bv (S.get_lane sim ~lane:g id)
                in
                record_issue c o ~slot t cycle vi ~predicted flagged
              end
          done
        done
    done;
    if !newly then
      S.freeze sim
        ~mask:(Array.fold_left (Array.fold_left ( land )) (S.amask sim) stopped)
  in
  Avp_vectors.Slots.run sim tr ~width:w vectors ~start
    ~on_reset:(fun ~slot q -> check ~slot q (-1))
    ~on_cycle:(fun ~slot q i -> check ~slot q i);
  let outcomes =
    Array.mapi
      (fun c oracles ->
        Array.init k (fun j ->
            let rec first o =
              if o = Array.length oracles then Clean
              else
                match (escape.(c).(o).(j), mismatch.(c).(o).(j)) with
                | Some (_, msg), _ -> escaped msg
                | None, Some m -> Mismatch m
                | None, None -> first (o + 1)
            in
            first 0))
      chains
  in
  (outcomes, !golden_x)

let detect ~lanes ~tr ~graph ~on_done (phases : phase array)
    (duts : Avp_hdl.Elab.t array) =
  let module Obs = Avp_obs.Obs in
  let n = Array.length duts in
  (* The nets the output oracles read: one array for all of them. *)
  let outs = ref None in
  let has_outputs =
    Array.map
      (fun p ->
        let found = ref false in
        Array.iter
          (Array.iter (function
            | States _ -> ()
            | Outputs nets ->
              if Option.fold ~none:false ~some:(( <> ) nets) !outs then
                invalid_arg "Campaign.detect: output oracles name different nets";
              outs := Some nets;
              found := true))
          p.chains;
        !found)
      phases
  in
  let outs = Option.value ~default:[||] !outs in
  (* The pristine outputs' rows, recorded on the interpreter: the scalar
     engine's input, and the fallback's.  The sets are the phases with
     an output oracle, in phase order. *)
  let out_phases =
    List.filter (Array.get has_outputs) (List.init (Array.length phases) Fun.id)
  in
  let set_of = Array.make (Array.length phases) (-1) in
  List.iteri (fun i p -> set_of.(p) <- i) out_phases;
  let recorded =
    lazy
      (Avp_vectors.Replay.record tr ~nets:outs
         (Array.of_list (List.map (fun p -> phases.(p).vectors) out_phases)))
  in
  (* Mutant by mutant: the scalar engine's whole run, and the sliced
     engine's leftovers (unschedulable mutants, chunks the kernel
     rejected or aborted on). *)
  let check_scalar j =
    let t0 = Obs.Clock.now_s () in
    let outcomes =
      Array.mapi
        (fun p { vectors; chains } ->
          let rows () = (Lazy.force recorded).(set_of.(p)) in
          Array.map (check_chain ~tr ~graph ~rows duts.(j) vectors) chains)
        phases
    in
    on_done ~t0 j (Array.concat (Array.to_list outcomes))
  in
  let lanes = max 1 (min lanes Avp_logic.Bv_sliced.lanes_limit) in
  (* A slot needs a mutant lane and its golden lane. *)
  if lanes < 2 || n = 0 then begin
    ignore (Lazy.force recorded);
    for j = 0 to n - 1 do
      check_scalar j
    done
  end
  else begin
    let base = tr.Translate.elab in
    let units = Avp_hdl.Compile.units base in
    let net_id nm = (Avp_hdl.Elab.net base nm).Avp_hdl.Elab.id in
    let state_names = Avp_vectors.Replay.state_nets tr in
    let state_ids = Array.map net_id state_names in
    let out_ids = Array.map net_id outs in
    let lane_oracle = function
      | States tours ->
        let predict ti cycle vi =
          let trace = tours.Avp_tour.Tour_gen.traces.(ti) in
          let state = Avp_vectors.Replay.predicted_state trace cycle in
          graph.State_graph.states.(state).(vi)
        in
        { o_ids = state_ids; o_names = state_names; o_predict = Some predict }
      | Outputs _ -> { o_ids = out_ids; o_names = outs; o_predict = None }
    in
    (* Every phase's chains, flattened in the order of [on_done]'s
       outcomes, and every phase's traces in one queue, in phase
       order. *)
    let flat f = Array.concat (Array.to_list (Array.mapi f phases)) in
    let chain_phase = flat (fun p ph -> Array.map (fun _ -> p) ph.chains) in
    let chains = flat (fun _ ph -> Array.map (Array.map lane_oracle) ph.chains) in
    let qphase = flat (fun p ph -> Array.map (fun _ -> p) ph.vectors) in
    let qtrace = flat (fun _ ph -> Array.mapi (fun t _ -> t) ph.vectors) in
    let queue = flat (fun _ ph -> ph.vectors) in
    let fallback = ref [] in
    let chunk = lanes - 1 in
    for ci = 0 to ((n + chunk - 1) / chunk) - 1 do
      let c0 = ci * chunk in
      let k = min chunk (n - c0) in
      (* The lanes a chunk leaves spare carry it again, so ⌊lanes/(k+1)⌋
         slots replay different traces side by side. *)
      let slots = lanes / (k + 1) in
      let tc0 = Obs.Clock.now_s () in
      let scheduled_n = ref 0 and traces = ref 0 in
      (* The pass span covers the word-parallel replay only; the
         callers' per-mutant work runs after it closes. *)
      let pass_span () =
        if Obs.enabled () then
          Obs.complete ~cat:"mutate" "mutate.pass"
            ~dur_s:(Obs.Clock.now_s () -. tc0)
            ~args:
              [
                ("pass", Obs.Int ci);
                ("lanes", Obs.Int (slots * (k + 1)));
                ("slots", Obs.Int slots);
                ("scheduled", Obs.Int !scheduled_n);
                ("traces", Obs.Int !traces);
              ]
      in
      let fall_back () =
        for j = c0 to c0 + k - 1 do
          fallback := j :: !fallback
        done
      in
      match
        Avp_hdl.Sliced.create_schemata ~u:units ~base
          (Array.init (slots * (k + 1)) (fun l ->
               let j = l mod (k + 1) in
               if j = k then base else duts.(c0 + j)))
      with
      | None ->
        pass_span ();
        fall_back ()
      | Some (sim, scheduled) -> (
        (* Only scheduled mutants simulate; a mutant's lanes share one
           merge, so its first lane speaks for all. *)
        let need = ref 0 in
        for j = 0 to k - 1 do
          if scheduled.(j) then begin
            incr scheduled_n;
            need := !need lor (1 lsl j)
          end
        done;
        match
          sliced_pass sim tr ~k ~need:!need ~traces ~chain_phase ~chains
            ~has_outputs ~qphase ~qtrace queue
        with
        | _, Some (p, t) ->
          (* A golden lane read an x/z output: the interpreter's
             recording of that trace raises the message recording every
             set up front would.  Should it not, the interpreter is the
             oracle, and the chunk falls back. *)
          pass_span ();
          ignore
            (Avp_vectors.Replay.record_trace tr ~nets:outs ~trace:t
               phases.(p).vectors.(t));
          fall_back ()
        | outcomes, None ->
          pass_span ();
          for j = 0 to k - 1 do
            if not scheduled.(j) then fallback := (c0 + j) :: !fallback
            else
              on_done ~t0:(Obs.Clock.now_s ()) (c0 + j)
                (Array.map (fun o -> o.(j)) outcomes)
          done
        | exception _ ->
          (* One lane drove the kernel outside its envelope (a
             mutation-induced comb loop aborts the whole word): rerun
             the chunk mutant by mutant on the scalar path, which
             attributes the failure to the mutant that caused it. *)
          scheduled_n := 0;
          pass_span ();
          fall_back ())
    done;
    List.iter check_scalar (List.rev !fallback)
  end

(* ---------------------------------------------------------------- *)
(* The campaign                                                     *)
(* ---------------------------------------------------------------- *)

let run ?families ?(seed = 1) ?budget ?domains:_ ?top ?progress
    ?(engine : [ `Scalar | `Sliced ] = `Sliced)
    ?(lanes = Avp_logic.Bv_sliced.lanes_limit) ~design ~tr ~graph ~tours () =
  let mutants =
    let all = Gen.all ?families design in
    match budget with
    | None -> all
    | Some budget -> Gen.sample ~seed ~budget all
  in
  let mutants = Array.of_list mutants in
  let n = Array.length mutants in
  (* The walks and their vectors depend on the pristine graph only, so
     they are made once, here; every mutant replays the same
     vectors. *)
  let rtours = random_tours ~seed graph tours in
  let tvecs = Avp_vectors.Replay.vectors tr tours in
  let rvecs = Avp_vectors.Replay.vectors tr rtours in
  let outs = output_ports design ~top:tr.Translate.elab.Avp_hdl.Elab.top in
  (* Pristine invariants, proven once; each vetted mutant is re-analysed
     and pruned when its invariants provably diverge on a checked net.
     The prune runs at vet time on BOTH engines, so scalar and sliced
     reports stay byte-identical. *)
  let checked_nets =
    Array.to_list outs
    @ Array.to_list (Avp_vectors.Replay.state_nets tr)
  in
  let pristine_inv = Avp_analysis.Absint.analyze tr.Translate.elab in
  let prune dut =
    Filter.prune ~checked:checked_nets ~pristine:pristine_inv dut
  in
  let cycles vecs =
    Array.fold_left (fun acc v -> acc + Array.length v) 0 vecs
  in
  let out = Array.make n Equivalent in
  (* One span per mutant, its args the deterministic classification —
     so normalized trace output repeats exactly, like the report. *)
  let module Obs = Avp_obs.Obs in
  let finish ~t0 i cls =
    out.(i) <- cls;
    if Obs.enabled () then
      Obs.complete ~cat:"mutate" "mutate.classify"
        ~dur_s:(Obs.Clock.now_s () -. t0)
        ~args:
          [
            ("mutant", Obs.Int mutants.(i).Gen.id);
            ("flow_in", Obs.Int 0);
            ("class", Obs.Str (class_name cls));
          ];
    match progress with
    | Some p -> Avp_obs.Progress.tick p
    | None -> ()
  in
  (* The parent span covers every pass and classification; the
     constant flow id draws the fan-out to the per-mutant spans in the
     Chrome viewer. *)
  Obs.span ~cat:"mutate" "mutate.run"
    ~args:[ ("mutants", Obs.Int n); ("flow_out", Obs.Int 0) ]
  @@ fun () ->
  (* Vet every mutant up front: stillborn, statically-killed and
     absint-pruned mutants classify without simulating, the survivors'
     elaborations are replayed. *)
  let cands = ref [] in
  for i = 0 to n - 1 do
    let t0 = Obs.Clock.now_s () in
    match Filter.vet ?top mutants.(i).Gen.design with
    | `Stillborn msg -> finish ~t0 i (Stillborn msg)
    | `Static msg -> finish ~t0 i (Killed_static msg)
    | `Ok dut -> (
      match prune dut with
      | Some why -> finish ~t0 i (Killed_absint why)
      | None -> cands := (i, dut) :: !cands)
  done;
  let cands = Array.of_list (List.rev !cands) in
  (* One replay of the tour vectors serves both tour oracles — the
     output oracle chains behind the state oracle — and the random
     vectors run in the same queue. *)
  detect ~lanes:(if engine = `Scalar then 1 else lanes) ~tr ~graph
    [|
      { vectors = tvecs; chains = [| [| States tours; Outputs outs |] |] };
      { vectors = rvecs; chains = [| [| Outputs outs |] |] };
    |]
    (Array.map snd cands)
    ~on_done:(fun ~t0 j o ->
      let i, dut = cands.(j) in
      finish ~t0 i
        (verdict ~graph ~dut (detail o.(0)) (detail o.(1))));
  let results =
    Array.init n (fun i -> { mutant = mutants.(i); cls = out.(i) })
  in
  let score family =
    let of_family r = r.mutant.Gen.descr.Op.family = family in
    let count p = Array.fold_left
        (fun acc r -> if of_family r && p r.cls then acc + 1 else acc)
        0 results
    in
    let total = count (fun _ -> true) in
    let stillborn = count (function Stillborn _ -> true | _ -> false) in
    let killed_static =
      count (function Killed_static _ -> true | _ -> false)
    in
    let killed_absint =
      count (function Killed_absint _ -> true | _ -> false)
    in
    let equivalent = count (function Equivalent -> true | _ -> false) in
    let killed_tour =
      count (function Killed { by_tour; _ } -> by_tour | _ -> false)
    in
    let killed_random =
      count (function Killed { by_random; _ } -> by_random | _ -> false)
    in
    let survived = count (function Survived _ -> true | _ -> false) in
    {
      family;
      total;
      stillborn;
      killed_static;
      killed_absint;
      equivalent;
      killed_tour;
      killed_random;
      survived;
      candidates =
        total - stillborn - killed_static - killed_absint - equivalent;
    }
  in
  let families =
    List.filter_map
      (fun f ->
        let s = score f in
        if s.total = 0 then None else Some s)
      Op.all_families
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 families in
  let candidates = sum (fun s -> s.candidates) in
  let tour_killed = sum (fun s -> s.killed_tour) in
  let random_killed = sum (fun s -> s.killed_random) in
  let rate k = if candidates = 0 then 0. else float_of_int k /. float_of_int candidates in
  {
    design = tr.Translate.elab.Avp_hdl.Elab.top;
    seed;
    total = n;
    results;
    families;
    candidates;
    tour_killed;
    random_killed;
    tour_rate = rate tour_killed;
    random_rate = rate random_killed;
    tour_cycles = cycles tvecs;
    random_cycles = cycles rvecs;
  }

(* ---------------------------------------------------------------- *)
(* Rendering                                                        *)
(* ---------------------------------------------------------------- *)

let class_note = function
  | Stillborn m | Killed_static m | Killed_absint m | Survived m -> m
  | Killed { detail; _ } -> detail
  | Equivalent -> ""

let survivors report =
  Array.to_list report.results
  |> List.filter (fun r -> match r.cls with Survived _ -> true | _ -> false)

let to_json report =
  let esc = Avp_analysis.Finding.json_escape in
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sum f =
    List.fold_left (fun acc s -> acc + f s) 0 report.families
  in
  p "{\n";
  p "  \"design\": \"%s\",\n" (esc report.design);
  p "  \"seed\": %d,\n" report.seed;
  p "  \"mutants\": %d,\n" report.total;
  p "  \"stillborn\": %d,\n" (sum (fun s -> s.stillborn));
  p "  \"killed_static\": %d,\n" (sum (fun s -> s.killed_static));
  p "  \"killed_absint\": %d,\n" (sum (fun s -> s.killed_absint));
  p "  \"equivalent\": %d,\n" (sum (fun s -> s.equivalent));
  p "  \"candidates\": %d,\n" report.candidates;
  p "  \"tour\": {\"killed\": %d, \"rate\": %.4f, \"cycles\": %d},\n"
    report.tour_killed report.tour_rate report.tour_cycles;
  p "  \"random\": {\"killed\": %d, \"rate\": %.4f, \"cycles\": %d},\n"
    report.random_killed report.random_rate report.random_cycles;
  p "  \"families\": [\n";
  List.iteri
    (fun i s ->
      p
        "    {\"family\": \"%s\", \"total\": %d, \"stillborn\": %d, \
         \"killed_static\": %d, \"killed_absint\": %d, \"equivalent\": %d, \
         \"killed_tour\": %d, \"killed_random\": %d, \"survived\": %d, \
         \"candidates\": %d}%s\n"
        (Op.family_name s.family) s.total s.stillborn s.killed_static
        s.killed_absint s.equivalent s.killed_tour s.killed_random s.survived
        s.candidates
        (if i = List.length report.families - 1 then "" else ","))
    report.families;
  p "  ],\n";
  p "  \"results\": [\n";
  Array.iteri
    (fun i r ->
      let d = r.mutant.Gen.descr in
      let missed_by ~by_tour ~by_random =
        (if by_tour then [] else [ "\"tour\"" ])
        @ (if by_random then [] else [ "\"random\"" ])
        |> String.concat ", "
        |> Printf.sprintf ", \"missed_by\": [%s]"
      in
      let extra =
        match r.cls with
        | Killed { by_tour; by_random; _ } ->
          Printf.sprintf ", \"by_tour\": %b, \"by_random\": %b%s" by_tour
            by_random
            (missed_by ~by_tour ~by_random)
        | Survived _ -> missed_by ~by_tour:false ~by_random:false
        | _ -> ""
      in
      p
        "    {\"id\": %d, \"family\": \"%s\", \"loc\": \"%d:%d\", \
         \"detail\": \"%s\", \"class\": \"%s\"%s, \"note\": \"%s\"}%s\n"
        r.mutant.Gen.id
        (Op.family_name d.Op.family)
        d.Op.loc.Avp_hdl.Ast.line d.Op.loc.Avp_hdl.Ast.col
        (esc d.Op.detail) (class_name r.cls) extra
        (esc (class_note r.cls))
        (if i = Array.length report.results - 1 then "" else ","))
    report.results;
  p "  ],\n";
  p "  \"survivors\": [\n";
  let survs = survivors report in
  List.iteri
    (fun i r ->
      let d = r.mutant.Gen.descr in
      p
        "    {\"id\": %d, \"family\": \"%s\", \"loc\": \"%d:%d\", \
         \"detail\": \"%s\", \"note\": \"%s\"}%s\n"
        r.mutant.Gen.id
        (Op.family_name d.Op.family)
        d.Op.loc.Avp_hdl.Ast.line d.Op.loc.Avp_hdl.Ast.col
        (esc d.Op.detail)
        (esc (class_note r.cls))
        (if i = List.length survs - 1 then "" else ","))
    survs;
  p "  ]\n";
  p "}\n";
  Buffer.contents buf

(* Bridge into the unified coverage reports: the campaign's scores as
   an {!Avp_obs.Report.mutation_section}, family table included. *)
let report_section (report : report) : Avp_obs.Report.mutation_section =
  {
    Avp_obs.Report.mutants = report.total;
    candidates = report.candidates;
    tour_killed = report.tour_killed;
    tour_rate = report.tour_rate;
    random_killed = report.random_killed;
    random_rate = report.random_rate;
    families =
      List.map
        (fun s ->
          {
            Avp_obs.Report.family = Op.family_name s.family;
            fam_total = s.total;
            fam_candidates = s.candidates;
            fam_killed_tour = s.killed_tour;
            fam_killed_random = s.killed_random;
            fam_equivalent = s.equivalent;
            fam_survived = s.survived;
            fam_rejected = s.stillborn + s.killed_static + s.killed_absint;
          })
        report.families;
  }

let pp_report ppf report =
  Format.fprintf ppf
    "mutation campaign on %s: %d mutants (seed %d)@." report.design
    report.total report.seed;
  Format.fprintf ppf
    "  %-18s %5s %5s %6s %6s %5s %5s %5s@." "family" "total" "cand"
    "tour" "rand" "equiv" "surv" "rej";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-18s %5d %5d %6d %6d %5d %5d %5d@."
        (Op.family_name s.family)
        s.total s.candidates s.killed_tour s.killed_random s.equivalent
        s.survived
        (s.stillborn + s.killed_static + s.killed_absint))
    report.families;
  (let pruned =
     List.fold_left (fun acc s -> acc + s.killed_absint) 0 report.families
   in
   if pruned > 0 then
     Format.fprintf ppf
       "  absint pruned %d mutant%s without simulating a cycle@." pruned
       (if pruned = 1 then "" else "s"));
  Format.fprintf ppf
    "  tour kill-rate %.1f%% (%d/%d, %d cycles) | random kill-rate %.1f%% \
     (%d/%d, %d cycles)@."
    (100. *. report.tour_rate) report.tour_killed report.candidates
    report.tour_cycles
    (100. *. report.random_rate)
    report.random_killed report.candidates report.random_cycles;
  match survivors report with
  | [] -> Format.fprintf ppf "  no survivors@."
  | survs ->
    Format.fprintf ppf "  survivors (%d):@." (List.length survs);
    List.iter
      (fun r ->
        Format.fprintf ppf "    #%d %a — %s@." r.mutant.Gen.id Op.pp_descr
          r.mutant.Gen.descr (class_note r.cls))
      survs
