(* Periodic stderr progress lines for long runs.

   Rate-limited, single-line ([\r]-rewritten) output.  Disabled
   instances (the default when
   stderr is not a TTY, or under [--json]) still count ticks but
   never write, so callers thread one value unconditionally. *)

type t = {
  label : string;
  total : int option;
  out : out_channel;
  enabled : bool;
  interval_s : float;
  start : float;
  mutable count : int;
  mutable last_print : float;
  mutable printed_width : int;  (* 0 when no line is on screen *)
}

let stderr_is_tty () = Unix.isatty Unix.stderr

let create ?(out = stderr) ?(interval_s = 0.2) ?enabled ?total ~label () =
  let enabled =
    match enabled with Some e -> e | None -> stderr_is_tty ()
  in
  {
    label;
    total;
    out;
    enabled;
    interval_s;
    start = Obs.Clock.now_s ();
    count = 0;
    last_print = 0.;
    printed_width = 0;
  }

let render t now =
  let elapsed = now -. t.start in
  let rate = if elapsed > 0. then float_of_int t.count /. elapsed else 0. in
  let line =
    match t.total with
    | Some total when total > 0 ->
      let pct = 100. *. float_of_int t.count /. float_of_int total in
      let eta =
        if rate > 0. && t.count < total then
          Printf.sprintf " eta %.0fs" (float_of_int (total - t.count) /. rate)
        else ""
      in
      Printf.sprintf "%s %d/%d (%.1f%%) %.1f/s%s" t.label t.count total pct
        rate eta
    | _ -> Printf.sprintf "%s %d %.1f/s" t.label t.count rate
  in
  (* Pad over whatever the previous, possibly longer, line left. *)
  let pad = max 0 (t.printed_width - String.length line) in
  Printf.fprintf t.out "\r%s%s" line (String.make pad ' ');
  flush t.out;
  t.printed_width <- String.length line

let tick ?(n = 1) t =
  t.count <- t.count + n;
  if t.enabled then begin
    let now = Obs.Clock.now_s () in
    if now -. t.last_print >= t.interval_s then begin
      t.last_print <- now;
      render t now
    end
  end

let finish t =
  if t.enabled && t.printed_width > 0 then begin
    (* Clear the line: later ordinary output starts clean. *)
    Printf.fprintf t.out "\r%s\r" (String.make t.printed_width ' ');
    flush t.out;
    t.printed_width <- 0
  end
