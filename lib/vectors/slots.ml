module Sliced = Avp_hdl.Sliced
module Bv = Avp_logic.Bv

(* The lane scheduler behind every sliced replay: the mutation
   campaign's detect passes and the lane checks of the fuzz loop's
   candidates and of [avp replay].

   Per slot it keeps the trace it replays (-1 when idle) and the cycle
   whose stimulus the next step applies (-1: the reset step).  A step
   gathers every slot's stimulus per net, writes each net once across
   all lanes, and clocks the kernel; the slots that took their reset
   step then release it together with one settle. *)

let run ?start ~on_reset ~on_cycle sim
    (tr : Avp_fsm.Translate.result) ~width (vectors : Vector.t array) =
  let design = tr.Avp_fsm.Translate.elab in
  let net_id = Avp_hdl.Elab.net_id design in
  let clock = net_id tr.Avp_fsm.Translate.clock
  and reset = net_id tr.Avp_fsm.Translate.reset in
  let nslots = Sliced.lanes sim / width in
  if width < 1 || nslots < 1 then
    invalid_arg "Slots.run: slot width out of the kernel's lane range";
  let slot_mask s = ((1 lsl width) - 1) lsl (s * width) in
  Sliced.freeze sim
    ~mask:(Sliced.amask sim land lnot ((1 lsl (nslots * width)) - 1));
  let one = Bv.of_int ~width:1 1 and zero = Bv.of_int ~width:1 0 in
  (* The realized vectors name the same net, through one physical
     string, at the same position of every cycle, so a per-position
     pointer-equality cache resolves nearly every name without hashing
     it. *)
  let pos_name = Array.make 64 "" and pos_id = Array.make 64 (-1) in
  let lookup i nm =
    if i < 64 && pos_name.(i) == nm then pos_id.(i)
    else begin
      let id = net_id nm in
      if i < 64 then begin
        pos_name.(i) <- nm;
        pos_id.(i) <- id
      end;
      id
    end
  in
  (* One step's forces, per net: slot [s]'s packed planes and the mask
     of the lanes whose slot forces the net. *)
  let nnets = Array.length design.Avp_hdl.Elab.nets in
  let pend_v = Array.make nnets [||] and pend_u = Array.make nnets [||] in
  let pend_mask = Array.make nnets 0 in
  let listed = Bytes.make nnets '\000' in
  let pend_ids = Array.make nnets 0 and n_pend = ref 0 in
  let apply s m i action =
    match action with
    | Vector.Force (nm, v) ->
      let id = lookup i nm in
      if Bv.width v <= Bv.packed_width_limit then begin
        if Array.length pend_v.(id) = 0 then begin
          pend_v.(id) <- Array.make nslots 0;
          pend_u.(id) <- Array.make nslots 0
        end;
        if Bytes.get listed id = '\000' then begin
          Bytes.set listed id '\001';
          pend_ids.(!n_pend) <- id;
          incr n_pend
        end;
        pend_v.(id).(s) <- Bv.value_plane v;
        pend_u.(id).(s) <- Bv.unknown_plane v;
        pend_mask.(id) <- pend_mask.(id) lor m
      end
      else begin
        pend_mask.(id) <- pend_mask.(id) land lnot m;
        Sliced.force_id ~mask:m sim id v
      end
    | Vector.Release nm ->
      (* The slot's pending force on the net takes effect first, as in
         the sequential order: a net without a driver keeps the forced
         value after its release. *)
      let id = lookup i nm in
      if pend_mask.(id) land m <> 0 then begin
        Sliced.force_slots sim id ~width ~mask:m pend_v.(id) pend_u.(id);
        pend_mask.(id) <- pend_mask.(id) land lnot m
      end;
      Sliced.release_id ~mask:m sim id
  in
  let rec apply_all s m i = function
    | [] -> ()
    | a :: rest ->
      apply s m i a;
      apply_all s m (i + 1) rest
  in
  let flush () =
    for i = 0 to !n_pend - 1 do
      let id = pend_ids.(i) in
      Bytes.set listed id '\000';
      if pend_mask.(id) <> 0 then begin
        Sliced.force_slots sim id ~width ~mask:pend_mask.(id) pend_v.(id)
          pend_u.(id);
        pend_mask.(id) <- 0
      end
    done;
    n_pend := 0
  in
  let trace = Array.make nslots (-1) and cycle = Array.make nslots 0 in
  let next = ref 0 in
  let rec take s =
    let m = slot_mask s in
    if !next >= Array.length vectors then begin
      trace.(s) <- -1;
      Sliced.freeze sim ~mask:m
    end
    else begin
      let t = !next in
      incr next;
      let live = match start with None -> m | Some f -> f ~slot:s t land m in
      if live = 0 then take s
      else begin
        Sliced.reinit ~mask:m sim;
        Sliced.freeze sim ~mask:(m land lnot live);
        Sliced.poke_id ~mask:live sim reset one;
        trace.(s) <- t;
        cycle.(s) <- -1
      end
    end
  in
  for s = 0 to nslots - 1 do
    take s
  done;
  while Array.exists (fun t -> t >= 0) trace do
    for s = 0 to nslots - 1 do
      let t = trace.(s) and c = cycle.(s) in
      if t >= 0 && c >= 0 then
        apply_all s (slot_mask s) 0 vectors.(t).(c).Vector.actions
    done;
    flush ();
    Sliced.step sim clock;
    let released = ref false in
    for s = 0 to nslots - 1 do
      if trace.(s) >= 0 && cycle.(s) < 0 then begin
        Sliced.poke_id ~mask:(slot_mask s) sim reset zero;
        released := true
      end
    done;
    if !released then Sliced.settle sim;
    for s = 0 to nslots - 1 do
      let t = trace.(s) and c = cycle.(s) in
      if t >= 0 then begin
        if c < 0 then on_reset ~slot:s t else on_cycle ~slot:s t c;
        cycle.(s) <- c + 1
      end
    done;
    for s = 0 to nslots - 1 do
      let t = trace.(s) in
      if
        t >= 0
        && (cycle.(s) >= Array.length vectors.(t)
           || Sliced.frozen sim land slot_mask s = slot_mask s)
      then take s
    done
  done
