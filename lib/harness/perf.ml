open Avp_pp
module Obs = Avp_obs.Obs

type report = {
  cycles : int;
  instructions : int;
  cpi : float;
  elapsed_s : float;
}

(* Every measurement runs under one {!Obs.Timer} — the same clock the
   tracing spans and the bench snapshots use, so wall-clock numbers
   from different tools are directly comparable. *)
let max_cycles = 50_000

let measure ~config (stim : Drive.stimulus) =
  let timer = Obs.Timer.start () in
  let rtl =
    Rtl.create ~config ~mem_init:stim.Drive.mem_init
      ~program:stim.Drive.program ~inbox:stim.Drive.inbox ()
  in
  Rtl.run ~max_cycles ~ready:stim.Drive.ready rtl;
  let instructions = Rtl.instructions_retired rtl in
  let elapsed_s = Obs.Timer.elapsed_s timer in
  if Obs.enabled () then
    Obs.complete ~cat:"perf" "perf.measure" ~dur_s:elapsed_s
      ~args:
        [
          ("cycles", Obs.Int (Rtl.cycle rtl));
          ("instructions", Obs.Int instructions);
        ];
  {
    cycles = Rtl.cycle rtl;
    instructions;
    cpi =
      (if instructions = 0 then nan
       else float_of_int (Rtl.cycle rtl) /. float_of_int instructions);
    elapsed_s;
  }

type verdict = {
  reference : report;
  dut : report;
  slowdown : float;
  results_match : bool;
}

let compare ~reference ~dut (stim : Drive.stimulus) =
  let ref_report = measure ~config:reference stim in
  let dut_report = measure ~config:dut stim in
  let results_match =
    match
      Compare.run ~config:dut ~max_cycles ~ready:stim.Drive.ready
        ~mem_init:stim.Drive.mem_init ~program:stim.Drive.program
        ~inbox:stim.Drive.inbox ()
    with
    | Compare.Match -> true
    | Compare.Mismatch _ -> false
  in
  {
    reference = ref_report;
    dut = dut_report;
    slowdown = dut_report.cpi /. ref_report.cpi;
    results_match;
  }

let pp_verdict ppf v =
  Format.fprintf ppf
    "reference %d cycles (cpi %.2f), dut %d cycles (cpi %.2f), slowdown \
     %.2fx; results %s"
    v.reference.cycles v.reference.cpi v.dut.cycles v.dut.cpi v.slowdown
    (if v.results_match then "match (performance bug invisible to \
                              result comparison)"
     else "mismatch")
