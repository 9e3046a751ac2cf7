open Avp_pp

(* All counting delegates to the generic {!Avp_obs.Coverage} counter;
   this module only supplies the RTL-specific projection — driving
   the pipeline under a stimulus and mapping each cycle's control
   observation onto the enumerated abstract state space. *)

type t = Avp_obs.Coverage.summary = {
  states_seen : int;
  states_total : int;
  arcs_seen : int;
  arcs_total : int;
  unmapped : int;
}

let state_fraction = Avp_obs.Coverage.state_fraction
let arc_fraction = Avp_obs.Coverage.arc_fraction
let pp = Avp_obs.Coverage.pp

type accumulator = {
  cfg : Control_model.cfg;
  graph : Avp_enum.State_graph.t;
  counter : Avp_obs.Coverage.t;
}

let create cfg graph =
  {
    cfg;
    graph;
    counter = Avp_obs.Coverage.of_graph graph.Avp_enum.State_graph.adj;
  }

let run ?config ?(max_cycles = 20_000) acc (stim : Drive.stimulus) =
  let rtl =
    Rtl.create ?config ~mem_init:stim.Drive.mem_init
      ~program:stim.Drive.program ~inbox:stim.Drive.inbox ()
  in
  let prev = ref None in
  let record () =
    let v = Control_model.valuation_of_obs acc.cfg (Rtl.observe rtl) in
    match Avp_enum.State_graph.find_state acc.graph v with
    | None ->
      Avp_obs.Coverage.mark_unmapped acc.counter;
      prev := None
    | Some id ->
      Avp_obs.Coverage.mark_state acc.counter id;
      (match !prev with
       | Some p ->
         (* mark_arc only counts pairs the graph declares, so a
            non-arc (src, dst) observation never inflates coverage. *)
         Avp_obs.Coverage.mark_arc acc.counter ~src:p ~dst:id
       | None -> ());
      prev := Some id
  in
  let rec loop () =
    if (not (Rtl.halted rtl)) && Rtl.cycle rtl < max_cycles then begin
      let ib, ob = stim.Drive.ready (Rtl.cycle rtl) in
      Rtl.step rtl ~inbox_ready:ib ~outbox_ready:ob;
      record ();
      loop ()
    end
  in
  loop ()

(* O(1) snapshot of the running counters: one taken before and one
   after a run give that run's coverage delta. *)
let counts acc = Avp_obs.Coverage.counts acc.counter

let run_delta ?config ?max_cycles acc stim =
  let before = counts acc in
  run ?config ?max_cycles acc stim;
  Avp_obs.Coverage.delta ~before ~after:(counts acc)

let result acc = Avp_obs.Coverage.summary acc.counter
