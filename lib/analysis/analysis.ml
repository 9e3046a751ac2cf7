(* Front end of the static-analysis subsystem: runs every registered
   pass over an elaborated design (or an FSM model), then filters and
   orders the findings deterministically. *)

open Avp_hdl

(* rule name, default severity, one-line description — the single
   source of truth for `avp lint`'s manpage and the README table. *)
let rules : (string * Finding.severity * string) list =
  [
    ("comb-loop", Finding.Error,
     "combinational cycle: the design can never settle");
    ("multiple-drivers", Finding.Error,
     "net driven by more than one non-tri-state source");
    ("seq-and-comb", Finding.Error,
     "net written by both edge-triggered and combinational logic");
    ("mixed-assignment", Finding.Error,
     "blocking and nonblocking assignment mixed on one net");
    ("sched-race", Finding.Warning,
     "blocking and nonblocking procedural writes race on one net; both \
      positions reported");
    ("sched-race-edge", Finding.Error,
     "two processes on the same clock edge write one net: nonblocking \
      commit order is unspecified");
    ("latch", Finding.Warning,
     "combinational process does not assign a net on every path");
    ("x-source", Finding.Warning,
     "register can latch X/Z reaching it from a tri-state, undriven or \
      explicit x/z source");
    ("width-mismatch", Finding.Warning,
     "assignment truncates or comparison mixes operand widths");
    ("reg-never-written", Finding.Warning, "declared reg has no driver");
    ("wire-never-driven", Finding.Warning,
     "wire is read but never driven");
    ("unused-net", Finding.Warning,
     "net is never read outside its own drivers");
    ("fsm-unreachable", Finding.Warning,
     "state-variable value unreachable from reset");
    ("fsm-sink", Finding.Warning,
     "state every choice combination maps to itself");
    ("fsm-dead-choice", Finding.Warning,
     "choice variable never affects any successor");
    ("fsm-choice-overlap", Finding.Warning,
     "distinct choice combinations are behaviourally identical");
    ("fsm-shadowed-guard", Finding.Warning,
     "rule guard subsumed by an earlier guard of the same if-chain");
    ("fsm-dead-guard", Finding.Warning,
     "rule guard is constant and can never fire (or always fires)");
    ("fsm-check-capped", Finding.Warning,
     "abstract FSM exploration exceeded its budget; checks skipped");
    ("constant-net", Finding.Warning,
     "written net proven constant at every reachable point (requires \
      --absint)");
    ("unreachable-branch", Finding.Warning,
     "branch guard proven one-sided on every post-reset cycle (requires \
      --absint)");
    ("redundant-reset", Finding.Warning,
     "reset branch assigns a value the register provably holds anyway \
      (requires --absint)");
  ]

let rule_names = List.map (fun (n, _, _) -> n) rules

let is_rule name = List.mem name rule_names

let severity_str = function
  | Finding.Error -> "error"
  | Finding.Warning -> "warning"

(* The README's rules table is generated from [rules] (see
   `avp lint --rules-md` and the drift test in test_analysis): edit
   the list above, never the README by hand. *)
let rules_markdown () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "| rule | severity | description |\n";
  Buffer.add_string buf "| --- | --- | --- |\n";
  List.iter
    (fun (name, sev, desc) ->
      Buffer.add_string buf
        (Printf.sprintf "| `%s` | %s | %s |\n" name (severity_str sev) desc))
    rules;
  Buffer.contents buf

(* [only] wins over [ignore] when both are given; empty [only] means
   "all rules". *)
let filter ?(only = []) ?(ignore = []) findings =
  List.filter
    (fun (f : Finding.t) ->
      (match only with [] -> true | _ -> List.mem f.Finding.rule only)
      && not (List.mem f.Finding.rule ignore))
    findings

(* ------------------------------------------------------------------ *)
(* Netlist analysis                                                   *)
(* ------------------------------------------------------------------ *)

let run ?only ?ignore ?(absint = false) (d : Elab.t) : Finding.t list =
  let infos = Dataflow.proc_infos d in
  let findings =
    List.concat
      [
        Netlist_passes.comb_loop d infos;
        Netlist_passes.latch d infos;
        Netlist_passes.x_source d infos;
        Netlist_passes.width_check d infos;
        Netlist_passes.races d;
        Netlist_passes.structural d;
      ]
  in
  let findings =
    (* The abstract-interpretation passes need a whole fixpoint run;
       opt-in so plain lint stays fast on large fuzzed designs. *)
    if absint then findings @ Absint.findings (Absint.analyze d)
    else findings
  in
  Finding.sort (filter ?only ?ignore findings)

(* ------------------------------------------------------------------ *)
(* FSM analysis                                                       *)
(* ------------------------------------------------------------------ *)

let run_model ?only ?ignore (m : Avp_fsm.Model.t) : Finding.t list =
  let r = Fsm_check.analyze m in
  Finding.sort (filter ?only ?ignore (Fsm_check.findings r))

let errors findings =
  List.filter (fun f -> f.Finding.severity = Finding.Error) findings

let warnings findings =
  List.filter (fun f -> f.Finding.severity = Finding.Warning) findings

(* Exit code contract shared with the CLI and CI gate: 0 clean,
   1 warnings under --strict, 2 errors. *)
let exit_code ~strict findings =
  if errors findings <> [] then 2
  else if strict && warnings findings <> [] then 1
  else 0
