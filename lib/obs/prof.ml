(* Span analytics over the Obs event stream.

   All derived facts come from the events alone so the analysis is
   identical in-process (--profile) and offline (avp profile over a
   --trace capture).  Nesting is reconstructed per domain from the
   tick intervals [o, c] — the same relation Obs.well_formed checks —
   and, for retrospective [complete] spans, which have no tick
   interval, from the time windows they enclose. *)

type span_stat = {
  s_cat : string;
  s_name : string;
  s_count : int;
  s_total_ns : int;
  s_self_ns : int;
  s_min_ns : int;
  s_p50_ns : int;
  s_p95_ns : int;
  s_max_ns : int;
  s_alloc_w : int;
  s_by_dom : (int * int) list;
}

type t = {
  p_events : int;
  p_wall_ns : int;
  p_spans : span_stat list;
  p_folded : (string * int) list;
  p_counters : (string * int) list;
}

(* Span names conventionally embed their category ("enum.level" in cat
   "enum"); don't print it twice. *)
let label cat name =
  let pre = cat ^ "." in
  if cat = "" || String.starts_with ~prefix:pre name then name
  else pre ^ name

let int_arg key (e : Obs.event) =
  match List.assoc_opt key e.Obs.args with
  | Some (Obs.Int i) -> Some i
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Nesting: direct parents and self time                              *)
(* ------------------------------------------------------------------ *)

(* For every span, its direct parent within its domain (or -1).

   Bracketed spans nest by their tick intervals: spans sorted by open
   tick, a stack of currently-open spans; [p] encloses [e] iff
   p.o < e.o && e.c < p.c.  O(n log n).

   Retrospective point-tick spans (o = c: an enum.run emitted after
   its levels, a classify after its equivalence check) carry no tick
   nesting of their own, and their windows may enclose bracketed spans
   as well as other point spans.  Each is parented to the innermost
   span whose time window contains it: among the spans sharing its tick
   parent, taken in close-tick order, a point span adopts every
   earlier top-level one that started no earlier than it did — what
   closed before it was emitted and started after its timer did ran
   inside its window.  The start comparison allows 1 ns for the
   rounding of [Obs.complete]'s start stamp; a zero-length span on the
   boundary stays a sibling.  A span never adopts one of its own
   (cat, name): the per-lane spans of one sliced pass share a start
   and run side by side, and no emitter times an instance of itself. *)
let compute_parents (spans : Obs.event array) =
  let n = Array.length spans in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let ea = spans.(a) and eb = spans.(b) in
      match compare (ea.Obs.dom, ea.Obs.o) (eb.Obs.dom, eb.Obs.o) with
      | 0 -> compare eb.Obs.c ea.Obs.c
      | c -> c)
    order;
  let tick_parent = Array.make n (-1) in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let e = spans.(i) in
      let rec unwind = function
        | p :: rest ->
          let pe = spans.(p) in
          if pe.Obs.dom = e.Obs.dom && pe.Obs.o < e.Obs.o && e.Obs.c < pe.Obs.c
          then p :: rest
          else unwind rest
        | [] -> []
      in
      stack := unwind !stack;
      (match !stack with p :: _ -> tick_parent.(i) <- p | [] -> ());
      stack := i :: !stack)
    order;
  let key i = (spans.(i).Obs.dom, tick_parent.(i), spans.(i).Obs.c) in
  Array.sort (fun a b -> compare (key a) (key b)) order;
  let parent = Array.copy tick_parent in
  let encloses (e : Obs.event) (s : Obs.event) =
    (s.Obs.cat, s.Obs.name) <> (e.Obs.cat, e.Obs.name)
    && s.Obs.ts_ns + 1 >= e.Obs.ts_ns
    && s.Obs.ts_ns + s.Obs.dur_ns > e.Obs.ts_ns
  in
  let group = ref (-1, -2) and top = ref [] in
  Array.iter
    (fun i ->
      let e = spans.(i) in
      let g = (e.Obs.dom, tick_parent.(i)) in
      if g <> !group then begin
        group := g;
        top := []
      end;
      if e.Obs.o = e.Obs.c then begin
        let rec adopt = function
          | s :: rest when encloses e spans.(s) ->
            parent.(s) <- i;
            adopt rest
          | rest -> rest
        in
        top := adopt !top
      end;
      top := i :: !top)
    order;
  parent

(* The union of half-open [(start, stop)] intervals, sorted and
   disjoint, and its length. *)
let merge_intervals ivs =
  let rec merge = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
      merge ((a1, max b1 b2) :: rest)
    | iv :: rest -> iv :: merge rest
    | [] -> []
  in
  merge (List.sort compare ivs)

let length_ns ivs = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 ivs
let covered_ns ivs = length_ns (merge_intervals ivs)

let of_events ?(counters = []) (evs : Obs.event list) =
  let all = Array.of_list evs in
  let spans =
    Array.of_list (List.filter (fun e -> e.Obs.ph = Obs.Span) evs)
  in
  let n = Array.length spans in
  let parent = compute_parents spans in
  (* Self time: the stretch of a window its direct children leave
     uncovered.  Totals and self times are unions: the per-lane spans
     of one sliced pass all cover the pass, and both the lanes' total
     and the round's self time count that window once.  A group of
     spans (one label on one domain, or one folded stack) is worth the
     union of its windows minus the union of its children's, each child
     clamped to its parent's window. *)
  let children = Array.make n [] in
  Array.iteri (fun i p -> if p >= 0 then children.(p) <- i :: children.(p)) parent;
  let window i =
    let e = spans.(i) in
    (e.Obs.ts_ns, e.Obs.ts_ns + e.Obs.dur_ns)
  in
  let kid_windows i =
    let lo, hi = window i in
    List.filter_map
      (fun k ->
        let a, b = window k in
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      children.(i)
  in
  let total_self group =
    let total = covered_ns (List.map window group) in
    (total, total - covered_ns (List.concat_map kid_windows group))
  in
  (* Span indices grouped by [key], each group in index order. *)
  let group_by key =
    let h = Hashtbl.create 64 in
    for i = n - 1 downto 0 do
      let k = key i in
      Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k))
    done;
    h
  in
  (* Aggregation per (cat, name): count and percentiles per span, total
     and self per domain. *)
  let stats =
    Hashtbl.fold
      (fun (cat, name) members acc ->
        let ds =
          Array.of_list (List.map (fun i -> spans.(i).Obs.dur_ns) members)
        in
        Array.sort compare ds;
        let m = Array.length ds in
        let pct p = ds.(min (m - 1) (p * (m - 1) / 100 + if p * (m - 1) mod 100 = 0 then 0 else 1)) in
        let on d = List.filter (fun i -> spans.(i).Obs.dom = d) members in
        let by_dom =
          List.sort_uniq compare (List.map (fun i -> spans.(i).Obs.dom) members)
          |> List.map (fun d -> (d, total_self (on d)))
        in
        let sum f = List.fold_left (fun a x -> a + f x) 0 in
        {
          s_cat = cat;
          s_name = name;
          s_count = m;
          s_total_ns = sum (fun (_, (t, _)) -> t) by_dom;
          s_self_ns = sum (fun (_, (_, s)) -> s) by_dom;
          s_min_ns = ds.(0);
          s_p50_ns = pct 50;
          s_p95_ns = pct 95;
          s_max_ns = ds.(m - 1);
          s_alloc_w =
            sum
              (fun i -> Option.value ~default:0 (int_arg "alloc_w" spans.(i)))
              members;
          s_by_dom = List.map (fun (d, (t, _)) -> (d, t)) by_dom;
        }
        :: acc)
      (group_by (fun i -> (spans.(i).Obs.cat, spans.(i).Obs.name)))
      []
    |> List.sort (fun a b ->
           match compare b.s_self_ns a.s_self_ns with
           | 0 -> compare (a.s_cat, a.s_name) (b.s_cat, b.s_name)
           | c -> c)
  in
  (* Folded stacks: each span's root chain, a dom<i> root frame keeping
     the domains apart; a stack's value is its spans' self time. *)
  let rec path i =
    let e = spans.(i) in
    let frame = label e.Obs.cat e.Obs.name in
    if parent.(i) < 0 then Printf.sprintf "dom%d;%s" e.Obs.dom frame
    else path parent.(i) ^ ";" ^ frame
  in
  let folded =
    Hashtbl.fold
      (fun k g acc -> (k, snd (total_self g)) :: acc)
      (group_by path) []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* Envelope of the whole trace. *)
  let wall_ns =
    if Array.length all = 0 then 0
    else begin
      let lo = ref max_int and hi = ref min_int in
      Array.iter
        (fun e ->
          if e.Obs.ts_ns < !lo then lo := e.Obs.ts_ns;
          let e_end = e.Obs.ts_ns + e.Obs.dur_ns in
          if e_end > !hi then hi := e_end)
        all;
      !hi - !lo
    end
  in
  {
    p_events = Array.length all;
    p_wall_ns = wall_ns;
    p_spans = stats;
    p_folded = folded;
    p_counters = counters;
  }

let of_tracer t = of_events ~counters:(Obs.counters t) (Obs.events t)

(* ------------------------------------------------------------------ *)
(* Trace files                                                        *)
(* ------------------------------------------------------------------ *)

let read_trace path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error m -> Error m
  | s ->
    if Filename.check_suffix path ".jsonl" then
      Ok
        (String.split_on_char '\n' s
        |> List.filter_map (fun line ->
               if String.trim line = "" then None else Obs.decode_event line))
    else begin
      match Json.parse s with
      | Error m -> Error (path ^ ": " ^ m)
      | Ok j -> (
        match Option.bind (Json.member "traceEvents" j) Json.to_list with
        | None -> Error (path ^ ": no traceEvents array")
        | Some evs -> Ok (List.filter_map Obs.event_of_json evs))
    end

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let ns_s ns = float_of_int ns /. 1e9

let json_of_span ?(normalize = false) (s : span_stat) =
  if normalize then
    Json.Obj
      [
        ("cat", Json.Str s.s_cat);
        ("name", Json.Str s.s_name);
        ("count", Json.Int s.s_count);
      ]
  else
    Json.Obj
      [
        ("cat", Json.Str s.s_cat);
        ("name", Json.Str s.s_name);
        ("count", Json.Int s.s_count);
        ("total_s", Json.Float (ns_s s.s_total_ns));
        ("self_s", Json.Float (ns_s s.s_self_ns));
        ("min_s", Json.Float (ns_s s.s_min_ns));
        ("p50_s", Json.Float (ns_s s.s_p50_ns));
        ("p95_s", Json.Float (ns_s s.s_p95_ns));
        ("max_s", Json.Float (ns_s s.s_max_ns));
        ("alloc_words", Json.Int s.s_alloc_w);
        ( "by_domain",
          Json.Obj
            (List.map
               (fun (d, ns) -> (string_of_int d, Json.Float (ns_s ns)))
               s.s_by_dom) );
      ]

let to_json_value ?(normalize = false) t =
  let spans =
    let ss =
      if normalize then
        List.sort
          (fun a b -> compare (a.s_cat, a.s_name) (b.s_cat, b.s_name))
          t.p_spans
      else t.p_spans
    in
    Json.List (List.map (json_of_span ~normalize) ss)
  in
  let fields =
    if normalize then [ ("spans", spans) ]
    else
      [
        ("events", Json.Int t.p_events);
        ("wall_s", Json.Float (ns_s t.p_wall_ns));
        ("spans", spans);
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.p_counters) );
      ]
  in
  Json.Obj fields

let to_json ?normalize t = Json.to_string_pretty (to_json_value ?normalize t)

let folded_string t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, ns) ->
      Buffer.add_string buf stack;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int ns);
      Buffer.add_char buf '\n')
    t.p_folded;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Flame view                                                         *)
(* ------------------------------------------------------------------ *)

(* Static icicle layout built from the folded stacks: a node's box is
   sized by its total (self + descendants); the unfilled width inside
   a box is its self time.  Pure HTML/CSS, no script. *)

type node = {
  mutable total : int;
  mutable kids : (string * node) list;  (* insertion order *)
}

let fresh () = { total = 0; kids = [] }

let insert root path v =
  let rec go node = function
    | [] -> ()
    | frame :: rest ->
      let child =
        match List.assoc_opt frame node.kids with
        | Some c -> c
        | None ->
          let c = fresh () in
          node.kids <- node.kids @ [ (frame, c) ];
          c
      in
      child.total <- child.total + v;
      go child rest
  in
  root.total <- root.total + v;
  go root path

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let flame_style =
  {|.flame{font:11px ui-monospace,Menlo,monospace;width:100%}
.flame .row{display:flex;width:100%}
.flame .node{overflow:hidden;min-width:1px}
.flame .cell{border:1px solid #fff;border-radius:2px;padding:0 3px;
white-space:nowrap;overflow:hidden;text-overflow:ellipsis;cursor:default}|}

let frame_color name =
  (* Stable pastel per frame name. *)
  let h = Hashtbl.hash name mod 360 in
  Printf.sprintf "hsl(%d,65%%,78%%)" h

let flame_div t =
  let root = fresh () in
  List.iter
    (fun (stack, v) -> insert root (String.split_on_char ';' stack) v)
    t.p_folded;
  let buf = Buffer.create 4096 in
  let rec render name node parent_total =
    let pctf =
      100. *. float_of_int node.total /. float_of_int (max 1 parent_total)
    in
    if pctf >= 0.1 then begin
      Buffer.add_string buf
        (Printf.sprintf "<div class=\"node\" style=\"width:%.2f%%\">" pctf);
      Buffer.add_string buf
        (Printf.sprintf
           "<div class=\"cell\" style=\"background:%s\" title=\"%s %.3f ms\">%s</div>"
           (frame_color name)
           (html_escape name)
           (float_of_int node.total /. 1e6)
           (html_escape name));
      if node.kids <> [] then begin
        Buffer.add_string buf "<div class=\"row\">";
        List.iter (fun (n, c) -> render n c node.total) node.kids;
        Buffer.add_string buf "</div>"
      end;
      Buffer.add_string buf "</div>"
    end
  in
  Buffer.add_string buf "<div class=\"flame\"><div class=\"row\">";
  List.iter (fun (n, c) -> render n c root.total) root.kids;
  Buffer.add_string buf "</div></div>";
  Buffer.contents buf

let flame_html t =
  Printf.sprintf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>avp \
     flame</title>\n<style>body{margin:1rem}%s</style></head><body>\n\
     <p style=\"font:12px ui-monospace,Menlo,monospace\">avp profile — %d \
     events, wall %.3f s; box width = total time, hover for \
     milliseconds</p>\n%s</body></html>\n"
    flame_style t.p_events (ns_s t.p_wall_ns) (flame_div t)

(* ------------------------------------------------------------------ *)
(* Text report                                                        *)
(* ------------------------------------------------------------------ *)

let pp ppf t =
  Format.fprintf ppf "profile: %d events, wall %.3fs@." t.p_events
    (ns_s t.p_wall_ns);
  Format.fprintf ppf
    "  %-22s %7s %10s %10s %9s %9s %9s %10s@."
    "span" "count" "total" "self" "p50" "p95" "max" "alloc(w)";
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  %-22s %7d %9.3fs %9.3fs %8.3fms %8.3fms %8.3fms %10d@."
        (label s.s_cat s.s_name) s.s_count (ns_s s.s_total_ns)
        (ns_s s.s_self_ns)
        (float_of_int s.s_p50_ns /. 1e6)
        (float_of_int s.s_p95_ns /. 1e6)
        (float_of_int s.s_max_ns /. 1e6)
        s.s_alloc_w)
    t.p_spans;
  match t.p_counters with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "counters:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-28s %d@." k v) cs
