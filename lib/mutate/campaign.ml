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
  | Nets of string array * int array array array

type phase = { vectors : Avp_vectors.Vector.t array; chain : oracle array }

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

(* One phase on the scalar engine: the chain's oracles replay in
   order, and the first issue ends the chain. *)
let check_phase ~tr ~graph dut { vectors; chain } =
  Array.fold_left
    (fun acc oracle ->
      match acc with
      | Clean ->
        guard (fun () ->
            match oracle with
            | States tours ->
              Avp_vectors.Replay.check ~dut ~vectors tr graph tours
            | Nets (nets, predicted) ->
              Avp_vectors.Replay.check_nets ~dut tr ~nets ~predicted vectors)
      | issue -> issue)
    Clean chain

let detail = function
  | Clean -> None
  | Mismatch m -> Some (Format.asprintf "%a" Avp_vectors.Replay.pp_mismatch m)
  | Escape d -> Some d

(* Assemble the final classification from the two oracle outcomes
   ([Some detail] = caught). *)
let verdict ~max_equiv_states ~graph ~dut tour random =
  match (tour, random) with
  | None, None -> (
    match Filter.equivalent ~max_states:max_equiv_states ~pristine:graph dut with
    | `Equivalent -> Equivalent
    | `Different why | `Unknown why -> Survived why)
  | Some d, r -> Killed { by_tour = true; by_random = r <> None; detail = d }
  | None, Some d -> Killed { by_tour = false; by_random = true; detail = d }

(* ---------------------------------------------------------------- *)
(* Bit-sliced schemata passes                                       *)
(* ---------------------------------------------------------------- *)

(* One phase on the sliced engine: one replay of its vector set on the
   chunk's kernel, serving its CHAIN of oracles.  The kernel's lanes
   form slots of [k] lanes, lane [s * k + j] carrying mutant [j], and
   each slot replays its own trace ({!Avp_vectors.Slots}): the stimulus
   is broadcast within a slot (every mutant sees the same vectors),
   the slots take the set's traces side by side, and only the checks
   are per lane.  [need] names the mutants whose outcome the caller
   will consume at all; the rest never simulate.  Returns, per mutant,
   the outcome the scalar [check_phase] would have produced.

   Traces finish out of order, so outcomes are combined by trace index,
   per (mutant, oracle), after the scalar replay, which runs every
   trace in order, stops a trace at its first issue, and lets an
   [Unsupported] escape end the whole replay:
   - a trace's first issue is at its lowest cycle, then at the first
     checked net; the lane is not checked again within that trace;
   - the lowest-trace escape wins over every mismatch, otherwise the
     lowest-trace mismatch wins, so a trace after a recorded escape no
     longer matters;
   - an oracle counts only while every earlier oracle of the chain is
     clean (the [check_phase] chain), so once one of them has an issue
     the mutant stops checking in every oracle after it.

   The pass exploits those rules for speed: a lane whose every oracle
   is done with its trace is frozen in the kernel (its nets stop
   toggling, so a chunk of dead mutants costs only the live lanes'
   settle activity), and a slot whose lanes are all frozen takes the
   next trace — the batched analogue of the scalar replay's
   first-mismatch early exit.  Chaining two oracles in one phase also
   halves the passes: both watch the same simulation, which is sound
   because checks never perturb it. *)
type lane_oracle = {
  o_ids : Avp_hdl.Elab.uid array;
  o_names : string array;
  o_predict : int -> int -> int -> int;  (* trace -> cycle -> net -> value *)
}

let sliced_phase sim tr ~k ~need ~traces (oracles : lane_oracle array)
    (vectors : Avp_vectors.Vector.t array) =
  let module S = Avp_hdl.Sliced in
  let slots = S.lanes sim / k in
  let no = Array.length oracles in
  (* Per (oracle, mutant): the lowest-trace escape and mismatch. *)
  let escape = Array.init no (fun _ -> Array.make k None) in
  let mismatch = Array.init no (fun _ -> Array.make k None) in
  let issue = Array.make no 0 in  (* per oracle: mutants with an issue *)
  (* Per oracle: lanes done with their slot's current trace. *)
  let stopped = Array.make no 0 in
  let slot_trace = Array.make slots (-1) in
  let escaped_before o j t =
    match escape.(o).(j) with Some (t', _) -> t' < t | None -> false
  in
  (* Mutant [j]'s lanes in the slots replaying a trace after [after]
     stop checking oracle [o]. *)
  let stop_mutant o j ~after =
    for s = 0 to slots - 1 do
      if slot_trace.(s) > after then
        stopped.(o) <- stopped.(o) lor (1 lsl ((s * k) + j))
    done
  in
  let start ~slot t =
    slot_trace.(slot) <- t;
    let live = ref 0 and blocked = ref (lnot need) in
    for o = 0 to no - 1 do
      for j = 0 to k - 1 do
        let bit = 1 lsl ((slot * k) + j) in
        if (!blocked lsr j) land 1 = 1 || escaped_before o j t then
          stopped.(o) <- stopped.(o) lor bit
        else begin
          stopped.(o) <- stopped.(o) land lnot bit;
          live := !live lor bit
        end
      done;
      blocked := !blocked lor issue.(o)
    done;
    if !live <> 0 then incr traces;
    !live
  in
  (* The first issue of lanes [flagged] of [slot] (trace [t]) in oracle
     [o], at net [vi] of [cycle]. *)
  let record_issue o ~slot t cycle vi ~predicted flagged =
    let oc = oracles.(o) in
    stopped.(o) <- stopped.(o) lor flagged;
    for j = 0 to k - 1 do
      let lane = (slot * k) + j in
      if (flagged lsr lane) land 1 = 1 then begin
        (match Translate.value_of_bv (S.get_lane sim ~lane oc.o_ids.(vi)) with
         | actual -> (
           match mismatch.(o).(j) with
           | Some (m : Avp_vectors.Replay.mismatch) when m.trace < t -> ()
           | _ ->
             mismatch.(o).(j) <-
               Some
                 {
                   Avp_vectors.Replay.trace = t;
                   cycle;
                   net = oc.o_names.(vi);
                   actual;
                   predicted;
                 })
         | exception Translate.Unsupported msg ->
           if not (escaped_before o j t) then begin
             escape.(o).(j) <- Some (t, msg);
             stop_mutant o j ~after:t
           end);
        issue.(o) <- issue.(o) lor (1 lsl j);
        for o' = o + 1 to no - 1 do
          stop_mutant o' j ~after:min_int
        done
      end
    done
  in
  let check ~slot t cycle =
    let lanes = ((1 lsl k) - 1) lsl (slot * k) in
    let newly = ref false in
    for o = 0 to no - 1 do
      let oc = oracles.(o) in
      for vi = 0 to Array.length oc.o_ids - 1 do
        let m = lanes land lnot stopped.(o) in
        if m <> 0 then begin
          let predicted = oc.o_predict t cycle vi in
          let bad, neq = S.check_net ~mask:m sim oc.o_ids.(vi) ~predicted in
          if bad lor neq <> 0 then begin
            newly := true;
            record_issue o ~slot t cycle vi ~predicted (bad lor neq)
          end
        end
      done
    done;
    if !newly then
      S.freeze sim ~mask:(Array.fold_left ( land ) (S.amask sim) stopped)
  in
  Avp_vectors.Slots.run sim tr ~width:k vectors ~start
    ~on_reset:(fun ~slot t -> check ~slot t (-1))
    ~on_cycle:(fun ~slot t i -> check ~slot t i);
  Array.init k (fun j ->
      let rec first o =
        if o = no then Clean
        else
          match (escape.(o).(j), mismatch.(o).(j)) with
          | Some (_, msg), _ -> escaped msg
          | None, Some m -> Mismatch m
          | None, None -> first (o + 1)
      in
      first 0)

let detect ~engine ~lanes ~tr ~graph ~on_done (phases : phase array)
    (duts : Avp_hdl.Elab.t array) =
  let module Obs = Avp_obs.Obs in
  let n = Array.length duts in
  (* Mutant by mutant: the scalar engine's whole run, and the sliced
     engine's leftovers (unschedulable mutants, chunks the kernel
     aborted on). *)
  let check_scalar j =
    let t0 = Obs.Clock.now_s () in
    on_done ~t0 j (Array.map (check_phase ~tr ~graph duts.(j)) phases)
  in
  match engine with
  | `Scalar ->
    for j = 0 to n - 1 do
      check_scalar j
    done
  | `Sliced ->
    let lanes = max 1 (min lanes Avp_logic.Bv_sliced.lanes_limit) in
    let base = tr.Translate.elab in
    let units = Avp_hdl.Compile.units base in
    let net_id nm = (Avp_hdl.Elab.net base nm).Avp_hdl.Elab.id in
    let state_names = Avp_vectors.Replay.state_nets tr in
    let state_ids = Array.map net_id state_names in
    let lane_oracle = function
      | States tours ->
        let predict ti cycle vi =
          let trace = tours.Avp_tour.Tour_gen.traces.(ti) in
          let state = Avp_vectors.Replay.predicted_state trace cycle in
          graph.State_graph.states.(state).(vi)
        in
        { o_ids = state_ids; o_names = state_names; o_predict = predict }
      | Nets (names, rows) ->
        {
          o_ids = Array.map net_id names;
          o_names = names;
          o_predict = (fun ti cycle vi -> rows.(ti).(cycle + 1).(vi));
        }
    in
    let lane_phases =
      Array.map (fun p -> (p.vectors, Array.map lane_oracle p.chain)) phases
    in
    let fallback = ref [] in
    let chunks = (n + lanes - 1) / lanes in
    for ci = 0 to chunks - 1 do
      let c0 = ci * lanes in
      let k = min lanes (n - c0) in
      (* The lanes a chunk leaves spare carry it again, so ⌊lanes/k⌋
         slots replay different traces side by side. *)
      let slots = lanes / k in
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
                ("lanes", Obs.Int (slots * k));
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
          (Array.init (slots * k) (fun l -> duts.(c0 + (l mod k))))
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
          Array.map
            (fun (vectors, oracles) ->
              sliced_phase sim tr ~k ~need:!need ~traces oracles vectors)
            lane_phases
        with
        | outcomes ->
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

(* ---------------------------------------------------------------- *)
(* The campaign                                                     *)
(* ---------------------------------------------------------------- *)

let run ?families ?(seed = 1) ?budget ?domains:_
    ?(max_equiv_states = 10_000) ?top ?progress
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
  let rows = Avp_vectors.Replay.record tr ~nets:outs [| tvecs; rvecs |] in
  let tour_out = rows.(0) and rand_out = rows.(1) in
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
  (* One fused replay of the tour vectors serves both tour oracles —
     the output oracle chains behind the state oracle — then one
     replay of the random vectors. *)
  detect ~engine ~lanes ~tr ~graph
    [|
      { vectors = tvecs; chain = [| States tours; Nets (outs, tour_out) |] };
      { vectors = rvecs; chain = [| Nets (outs, rand_out) |] };
    |]
    (Array.map snd cands)
    ~on_done:(fun ~t0 j o ->
      let i, dut = cands.(j) in
      finish ~t0 i
        (verdict ~max_equiv_states ~graph ~dut (detail o.(0)) (detail o.(1))));
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
