let default_domains () =
  match Sys.getenv_opt "AVP_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let iter ~domains n job =
  let domains = max 1 (min domains n) in
  if domains = 1 then
    for i = 0 to n - 1 do
      job i
    done
  else begin
    let share slot () =
      let i = ref slot in
      while !i < n do
        job !i;
        i := !i + domains
      done
    in
    (* The caller is slot 0.  Every spawned domain is joined before a
       failure is re-raised, so no job outlives the call, also when a
       spawn fails (OCaml 5 runs at most 128 domains at once). *)
    let outcome f = match f () with () -> None | exception e -> Some e in
    let workers = ref [] in
    let spawned =
      outcome (fun () ->
          for d = 1 to domains - 1 do
            workers := Domain.spawn (share d) :: !workers
          done)
    in
    let mine = if Option.is_none spawned then outcome (share 0) else spawned in
    let theirs =
      List.rev_map (fun w -> outcome (fun () -> Domain.join w)) !workers
    in
    match List.find_map Fun.id (mine :: theirs) with
    | Some e -> raise e
    | None -> ()
  end
