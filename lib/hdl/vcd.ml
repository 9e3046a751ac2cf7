open Avp_logic

type net_probe = {
  name : string;
  id : Elab.uid;
  width : int;
  code : string;  (* VCD identifier code *)
  mutable last : Bv.t option;
}

type t = {
  sim : Sim.t;
  probes : net_probe list;
  buf : Buffer.t;  (* body: value changes *)
  mutable samples : int;
}

(* Printable identifier codes per VCD spec: chars 33..126. *)
let code_of_index i =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create sim ~nets =
  let d = Sim.design sim in
  let probes =
    List.mapi
      (fun i name ->
        let net = Elab.net d name in
        {
          name;
          id = net.Elab.id;
          width = net.Elab.width;
          code = code_of_index i;
          last = None;
        })
      nets
  in
  { sim; probes; buf = Buffer.create 1024; samples = 0 }

let emit_value buf probe (v : Bv.t) =
  if probe.width = 1 then begin
    Buffer.add_char buf (Avp_logic.Bit.to_char (Bv.get v 0));
    Buffer.add_string buf probe.code;
    Buffer.add_char buf '\n'
  end
  else begin
    Buffer.add_char buf 'b';
    Buffer.add_string buf (Bv.to_string v);
    Buffer.add_char buf ' ';
    Buffer.add_string buf probe.code;
    Buffer.add_char buf '\n'
  end

let sample t =
  let changed =
    List.filter
      (fun p ->
        let v = Sim.get_id t.sim p.id in
        match p.last with
        | Some prev when Bv.equal prev v -> false
        | Some _ | None ->
          p.last <- Some v;
          true)
      t.probes
  in
  if changed <> [] || t.samples = 0 then begin
    Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.samples);
    List.iter
      (fun p ->
        match p.last with
        | Some v -> emit_value t.buf p v
        | None -> ())
      changed
  end;
  t.samples <- t.samples + 1

(* ------------------------------------------------------------------ *)
(* Observer-driven dumping                                            *)
(* ------------------------------------------------------------------ *)

(* [attach] hooks the Sim observer so the dump tracks every clock
   edge without the driver calling [sample] itself, and so force /
   release commands from replayed test vectors show up as $comment
   annotations at the cycle where they took effect — exactly the
   events the paper's vectors are made of. *)

let annotate t text =
  Buffer.add_string t.buf
    (Printf.sprintf "$comment #%d %s $end\n" t.samples text)

let attach sim ~nets =
  let t = create sim ~nets in
  Sim.set_observer sim
    (Some
       {
         Sim.on_step = (fun ~time:_ -> sample t);
         on_force =
           (fun name v ->
             annotate t (Printf.sprintf "force %s = %s" name (Bv.to_string v)));
         on_release = (fun name -> annotate t (Printf.sprintf "release %s" name));
       });
  (* Record time-zero values so the waveform starts defined. *)
  sample t;
  t

let detach t = Sim.set_observer t.sim None

let sanitize name = String.map (fun c -> if c = '.' then '_' else c) name

let serialize ?(timescale = "1 ns") ?(top = "top") t =
  let header = Buffer.create 512 in
  Buffer.add_string header "$date generated by avp $end\n";
  Buffer.add_string header "$version avp.hdl VCD writer $end\n";
  Buffer.add_string header
    (Printf.sprintf "$timescale %s $end\n" timescale);
  Buffer.add_string header (Printf.sprintf "$scope module %s $end\n" top);
  List.iter
    (fun p ->
      Buffer.add_string header
        (Printf.sprintf "$var wire %d %s %s $end\n" p.width p.code
           (sanitize p.name)))
    t.probes;
  Buffer.add_string header "$upscope $end\n$enddefinitions $end\n";
  Buffer.add_buffer header t.buf;
  Buffer.contents header

