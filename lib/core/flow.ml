type report = {
  translation : Avp_fsm.Translate.result;
  graph : Avp_enum.State_graph.t;
  tours : Avp_tour.Tour_gen.t;
  vectors : Avp_vectors.Vector.t array;
  replay : (Avp_vectors.Replay.stats, Avp_vectors.Replay.mismatch) result;
  absorbing : int list;
}

let run ?all_conditions ?instr_limit ?progress ?dut elab =
  let translation = Avp_fsm.Translate.translate elab in
  let graph, tours =
    Front.tours ?all_conditions ?instr_limit
      translation.Avp_fsm.Translate.model
  in
  let vectors = Avp_vectors.Replay.vectors translation tours in
  let progress =
    Option.map (fun make -> make (Array.length vectors)) progress
  in
  let replay =
    let lanes =
      Avp_obs.Obs.span ~cat:"replay" "replay.run"
        ~args:[ ("traces", Avp_obs.Obs.Int (Array.length vectors)) ]
      @@ fun () ->
      Avp_vectors.Replay.check_lanes
        ~dut:(Option.value ~default:elab dut)
        translation graph tours vectors
    in
    match lanes with
    | Some (Ok stats) ->
      Option.iter
        (Avp_obs.Progress.tick ~n:(Array.length vectors))
        progress;
      Ok stats
    | Some (Error _) | None ->
      (* The interpreter's verdict: its mismatch record, or its
         exception. *)
      Avp_vectors.Replay.check ?dut ?progress ~vectors translation graph
        tours
  in
  Option.iter Avp_obs.Progress.finish progress;
  {
    translation;
    graph;
    tours;
    vectors;
    replay;
    absorbing = Avp_enum.State_graph.absorbing_states graph;
  }

let run_source ?all_conditions ?instr_limit src =
  run ?all_conditions ?instr_limit
    (Avp_hdl.Elab.elaborate (Avp_hdl.Parser.parse src))

let passed r =
  Avp_tour.Tour_gen.covers_all_edges r.graph r.tours
  && match r.replay with Ok _ -> true | Error _ -> false

let pp_summary ppf r =
  Format.fprintf ppf "%a@.%a@."
    Avp_enum.State_graph.pp_stats r.graph.Avp_enum.State_graph.stats
    Avp_tour.Tour_gen.pp_stats r.tours.Avp_tour.Tour_gen.stats;
  (match r.replay with
   | Ok s ->
     Format.fprintf ppf
       "replay: %d traces / %d cycles, every transition matched@."
       s.Avp_vectors.Replay.traces s.Avp_vectors.Replay.cycles
   | Error m ->
     Format.fprintf ppf "replay MISMATCH: %a@." Avp_vectors.Replay.pp_mismatch
       m);
  match r.absorbing with
  | [] -> ()
  | dead ->
    Format.fprintf ppf
      "WARNING: %d absorbing state(s) — possible deadlock@."
      (List.length dead)
