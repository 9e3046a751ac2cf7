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

let random_tours ~seed (model : Model.t) (graph : State_graph.t)
    (tours : Avp_tour.Tour_gen.t) =
  let rng = Random.State.make [| 0x6261736c; seed |] in
  let num_choices = Model.num_choices model in
  Avp_tour.Tour_gen.of_traces
    (Array.map
       (fun trace ->
         Avp_tour.Tour_gen.walk model graph
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

(* One phase on the sliced engine: one replay of its vector set, all
   lanes word-parallel, serving its CHAIN of oracles.  Stimulus is
   broadcast (every mutant sees the same vectors), only the checks are
   per lane.  Oracle [k]'s result counts only for lanes every earlier
   oracle passed clean — the [check_phase] chain — so a lane with an
   issue in oracle [j] stops checking in every oracle after [j].
   [need] names the lanes whose outcome the caller will consume at
   all; the rest never simulate.  Returns, per lane, the outcome the
   scalar [check_phase] would have produced.

   Scalar fidelity rules, per oracle, lane by lane:
   - the first mismatch (lowest trace, then lowest cycle, then
     checked-net order) is the one recorded;
   - after a lane's first issue in a trace, the lane is not checked
     again within that trace (the scalar replay stops the trace), but
     is checked again in later traces — where an [Unsupported] escape
     would preempt the recorded mismatch, because the scalar shard
     loop runs every trace and the exception escapes the final scan;
   - a lane with an escape is retired from all later traces.

   The word pass exploits those rules for speed: once EVERY oracle is
   done with a lane for the current trace, the lane is frozen in the
   kernel (its nets stop toggling, so a chunk of dead mutants costs
   only the live lanes' settle activity), and the trace is abandoned
   outright once every lane has stopped everywhere — the batched
   analogue of the scalar replay's first-mismatch early exit.
   Chaining two oracles in one phase also halves the passes: both
   watch the same simulation, which is sound because checks never
   perturb it. *)
type lane_oracle = {
  o_ids : Avp_hdl.Elab.uid array;
  o_names : string array;
  o_predict : int -> int -> int -> int;  (* trace -> cycle -> net -> value *)
}

let sliced_phase sim ~lookup ~clock ~reset ~need
    (oracles : lane_oracle array) (vectors : Avp_vectors.Vector.t array) =
  let module S = Avp_hdl.Sliced in
  let lanes = S.lanes sim in
  let amask = S.amask sim in
  let no = Array.length oracles in
  let one = Avp_logic.Bv.of_int ~width:1 1
  and zero = Avp_logic.Bv.of_int ~width:1 0 in
  let exn = Array.init no (fun _ -> Array.make lanes None) in
  let mis = Array.init no (fun _ -> Array.make lanes None) in
  let exn_mask = Array.make no 0 in
  let issue = Array.make no 0 in  (* lanes with any recorded issue *)
  let stopped = Array.make no 0 in  (* per trace: lanes not checked *)
  for ti = 0 to Array.length vectors - 1 do
    let irrelevant = ref 0 in
    for k = 0 to no - 1 do
      stopped.(k) <-
        amask
        land lnot (need land lnot exn_mask.(k) land lnot !irrelevant);
      irrelevant := !irrelevant lor issue.(k)
    done;
    let frozen0 = Array.fold_left ( land ) amask stopped in
    if frozen0 <> amask then begin
      S.reinit sim;
      S.freeze sim ~mask:frozen0;
      (* Returns [true] once every oracle has stopped every lane —
         the rest of the trace cannot change any recorded result. *)
      let compare_at cycle =
        let newly = ref false in
        for k = 0 to no - 1 do
          let o = oracles.(k) in
          Array.iteri
            (fun vi id ->
              let m = amask land lnot stopped.(k) in
              if m <> 0 then begin
                let p = o.o_predict ti cycle vi in
                let bad, neq = S.check_net ~mask:m sim id ~predicted:p in
                let flagged = bad lor neq in
                if flagged <> 0 then begin
                  for l = 0 to lanes - 1 do
                    if (flagged lsr l) land 1 = 1 then begin
                      let bv = S.get_lane sim ~lane:l id in
                      match Translate.value_of_bv bv with
                      | actual ->
                        if mis.(k).(l) = None then
                          mis.(k).(l) <-
                            Some
                              {
                                Avp_vectors.Replay.trace = ti;
                                cycle;
                                net = o.o_names.(vi);
                                actual;
                                predicted = p;
                              }
                      | exception Translate.Unsupported msg ->
                        exn.(k).(l) <- Some msg;
                        exn_mask.(k) <- exn_mask.(k) lor (1 lsl l)
                    end
                  done;
                  issue.(k) <- issue.(k) lor flagged;
                  for k' = k to no - 1 do
                    stopped.(k') <- stopped.(k') lor flagged
                  done;
                  newly := true
                end
              end)
            o.o_ids
        done;
        if !newly then begin
          let all = Array.fold_left ( land ) amask stopped in
          S.freeze sim ~mask:all;
          all = amask
        end
        else false
      in
      S.set_id sim reset one;
      S.step sim clock;
      S.set_id sim reset zero;
      if not (compare_at (-1)) then begin
        try
          Array.iteri
            (fun i { Avp_vectors.Vector.actions } ->
              List.iter
                (fun a ->
                  match a with
                  | Avp_vectors.Vector.Force (nm, v) ->
                    S.force_id sim (lookup nm) v
                  | Avp_vectors.Vector.Release nm ->
                    S.release_id sim (lookup nm))
                actions;
              S.step sim clock;
              if compare_at i then raise Exit)
            vectors.(ti)
        with Exit -> ()
      end
    end
  done;
  Array.init lanes (fun l ->
      let rec first k =
        if k = no then Clean
        else
          match (exn.(k).(l), mis.(k).(l)) with
          | Some msg, _ -> escaped msg
          | None, Some m -> Mismatch m
          | None, None -> first (k + 1)
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
    let clock = net_id tr.Translate.clock
    and reset = net_id tr.Translate.reset in
    let lookup =
      let tbl = Hashtbl.create 16 in
      fun nm ->
        match Hashtbl.find_opt tbl nm with
        | Some id -> id
        | None ->
          let id = net_id nm in
          Hashtbl.add tbl nm id;
          id
    in
    let state_names = Avp_vectors.Replay.state_nets tr in
    let state_ids = Array.map net_id state_names in
    let lane_oracle = function
      | States tours ->
        let predict ti cycle vi =
          let trace = tours.Avp_tour.Tour_gen.traces.(ti) in
          let state =
            if cycle < 0 then trace.(0).Avp_tour.Tour_gen.src
            else trace.(cycle).Avp_tour.Tour_gen.dst
          in
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
      let tc0 = Obs.Clock.now_s () in
      let scheduled_n = ref 0 in
      (* The pass span covers the word-parallel replay only; the
         callers' per-mutant work runs after it closes. *)
      let pass_span () =
        if Obs.enabled () then
          Obs.complete ~cat:"mutate" "mutate.pass"
            ~dur_s:(Obs.Clock.now_s () -. tc0)
            ~args:
              [
                ("pass", Obs.Int ci);
                ("lanes", Obs.Int k);
                ("scheduled", Obs.Int !scheduled_n);
              ]
      in
      let fall_back () =
        for j = c0 to c0 + k - 1 do
          fallback := j :: !fallback
        done
      in
      match
        Avp_hdl.Sliced.create_schemata ~u:units ~base (Array.sub duts c0 k)
      with
      | None ->
        pass_span ();
        fall_back ()
      | Some (sim, scheduled) -> (
        (* Only scheduled lanes simulate. *)
        let need = ref 0 in
        Array.iteri
          (fun l s ->
            if s then begin
              incr scheduled_n;
              need := !need lor (1 lsl l)
            end)
          scheduled;
        match
          Array.map
            (fun (vectors, oracles) ->
              sliced_phase sim ~lookup ~clock ~reset ~need:!need oracles
                vectors)
            lane_phases
        with
        | outcomes ->
          pass_span ();
          Array.iteri
            (fun l s ->
              if not s then fallback := (c0 + l) :: !fallback
              else
                on_done ~t0:(Obs.Clock.now_s ()) (c0 + l)
                  (Array.map (fun o -> o.(l)) outcomes))
            scheduled
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
  (* Vector realization touches the pristine model (whose [next] steps
     a shared simulator), so it happens once, here; every mutant
     replays the same vectors. *)
  let rtours = random_tours ~seed tr.Translate.model graph tours in
  let tvecs = Avp_vectors.Replay.vectors tr tours in
  let rvecs = Avp_vectors.Replay.vectors tr rtours in
  let outs = output_ports design ~top:tr.Translate.elab.Avp_hdl.Elab.top in
  let tour_out = Avp_vectors.Replay.record tr ~nets:outs tvecs in
  let rand_out = Avp_vectors.Replay.record tr ~nets:outs rvecs in
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
