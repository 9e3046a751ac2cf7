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

let run_stimulus ?config ?(max_cycles = 20_000) (stim : Drive.stimulus) =
  Compare.run ?config ~max_cycles ~ready:stim.Drive.ready
    ~mem_init:stim.Drive.mem_init ~program:stim.Drive.program
    ~inbox:stim.Drive.inbox ()

let detect_with ?max_cycles ?(domains = 1) ?progress config stimuli =
  let tick () =
    match progress with
    | Some p -> Avp_obs.Progress.tick p
    | None -> ()
  in
  let stims = Array.of_list stimuli in
  let n = Array.length stims in
  let domains = max 1 (min domains (max 1 n)) in
  if domains = 1 then begin
    let rec go runs instructions = function
      | [] -> { detected = false; runs; instructions }
      | stim :: rest ->
        let instructions =
          instructions + Array.length stim.Drive.program - 1
        in
        tick ();
        (match run_stimulus ~config ?max_cycles stim with
         | Compare.Match -> go (runs + 1) instructions rest
         | Compare.Mismatch _ ->
           { detected = true; runs = runs + 1; instructions })
    in
    go 0 0 stimuli
  end
  else begin
    (* Stimuli sharded round-robin over domains, each run on its own
       pair of simulators inside [Compare.run].  [first_hit] lets
       workers skip stimuli that can no longer be the answer: only
       indices above an already-detected one are skipped, so the merge
       below still reports exactly what the sequential scan would. *)
    let detected = Array.make n false in
    let first_hit = Atomic.make max_int in
    Avp_enum.Pool.iter ~domains n (fun i ->
        if i < Atomic.get first_hit then begin
          tick ();
          match run_stimulus ~config ?max_cycles stims.(i) with
          | Compare.Match -> ()
          | Compare.Mismatch _ ->
            detected.(i) <- true;
            let rec lower () =
              let cur = Atomic.get first_hit in
              if i < cur && not (Atomic.compare_and_set first_hit cur i)
              then lower ()
            in
            lower ()
        end);
    (* Deterministic merge: first detecting stimulus in list order. *)
    let rec scan i runs instructions =
      if i = n then { detected = false; runs; instructions }
      else
        let instructions =
          instructions + Array.length stims.(i).Drive.program - 1
        in
        if detected.(i) then { detected = true; runs = runs + 1; instructions }
        else scan (i + 1) (runs + 1) instructions
    in
    scan 0 0 0
  end

let table_2_1 ?(seed = 1) ?max_cycles ?domains ?progress ?fuzz ~cfg ~graph
    ~tours () =
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
          generated =
            detect_with ?max_cycles ?domains ?progress config
              generated_stimuli;
          random =
            detect_with ?max_cycles ?domains ?progress config random_stimuli;
          directed =
            detect_with ?max_cycles ?domains ?progress config
              directed_stimuli;
          fuzz =
            Option.map
              (fun stimuli ->
                detect_with ?max_cycles ?domains ?progress config stimuli)
              fuzz;
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
