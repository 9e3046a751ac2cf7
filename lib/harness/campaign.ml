open Avp_pp

type method_result = {
  detected : bool;
  runs : int;
  instructions : int;
}

type bug_row = {
  bug : Bugs.id;
  generated : method_result;
  random : method_result;
  directed : method_result;
  fuzz : method_result option;
      (** coverage-guided fuzz corpus, when one was supplied *)
}

let run_stimulus ?config (stim : Drive.stimulus) =
  Compare.run ?config ~max_cycles:20_000 ~ready:stim.Drive.ready
    ~mem_init:stim.Drive.mem_init ~program:stim.Drive.program
    ~inbox:stim.Drive.inbox ()

(* Run stimuli in list order until one exposes a mismatch; [progress]
   ticks once per stimulus run. *)
let detect_with ?progress config stimuli =
  let rec scan runs instructions = function
    | [] -> { detected = false; runs; instructions }
    | stim :: rest -> (
      (match progress with
       | Some p -> Avp_obs.Progress.tick p
       | None -> ());
      let runs = runs + 1
      and instructions = instructions + Array.length stim.Drive.program - 1 in
      match run_stimulus ~config stim with
      | Compare.Mismatch _ -> { detected = true; runs; instructions }
      | Compare.Match -> scan runs instructions rest)
  in
  scan 0 0 stimuli

let table_2_1 ?(seed = 1) ?progress ?fuzz ~cfg ~graph ~tours () =
  let generated_stimuli = Drive.of_traces ~seed cfg graph tours in
  let generated_budget =
    List.fold_left
      (fun n s -> n + Array.length s.Drive.program - 1)
      0 generated_stimuli
  in
  (* Random programs of ~200 instructions each, with the same total
     instruction budget as the generated vectors. *)
  let random_stimuli =
    let per_program = 200 in
    let count = max 1 (generated_budget / per_program) in
    List.init count (fun i ->
        Baselines.random_stimulus ~seed:(seed + i) ~instructions:per_program)
  in
  let directed_stimuli = List.map snd (Baselines.directed_suite ()) in
  List.map
    (fun bug ->
      let config = { Rtl.default_config with Rtl.bugs = Bugs.only bug } in
      let row =
        {
          bug;
          generated = detect_with ?progress config generated_stimuli;
          random = detect_with ?progress config random_stimuli;
          directed = detect_with ?progress config directed_stimuli;
          fuzz = Option.map (detect_with ?progress config) fuzz;
        }
      in
      if Avp_obs.Obs.enabled () then
        Avp_obs.Obs.instant ~cat:"validate" "validate.bug"
          ~args:
            ([
               ("bug", Avp_obs.Obs.Str (Format.asprintf "%a" Bugs.pp_id bug));
               ("generated", Avp_obs.Obs.Bool row.generated.detected);
               ("random", Avp_obs.Obs.Bool row.random.detected);
               ("directed", Avp_obs.Obs.Bool row.directed.detected);
             ]
            @
            match row.fuzz with
            | Some f -> [ ("fuzz", Avp_obs.Obs.Bool f.detected) ]
            | None -> []);
      row)
    Bugs.all_ids

let pp_result ppf r =
  if r.detected then
    Format.fprintf ppf "found (run %d, %d instr)" r.runs r.instructions
  else Format.fprintf ppf "NOT FOUND (%d runs, %d instr)" r.runs
         r.instructions

let pp_rows ppf rows =
  List.iter
    (fun row ->
      Format.fprintf ppf "%a: generated %a | random %a | directed %a"
        Bugs.pp_id row.bug pp_result row.generated pp_result row.random
        pp_result row.directed;
      (match row.fuzz with
       | Some f -> Format.fprintf ppf " | fuzz %a" pp_result f
       | None -> ());
      Format.fprintf ppf "@.")
    rows
