open Avp_fsm

type cfg = {
  with_spill : bool;
  with_conflict : bool;
  with_interfaces : bool;
  with_mem_nondet : bool;
  pipe_window : int;
  fill_counters : int;
  dual_issue : bool;
  io_credits : int;
      (** >0 models the Inbox/Outbox as occupancy counters of that
          depth instead of stateless ready bits *)
  with_branches : bool;
      (** model squashing branches: a sixth instruction class plus an
          abstract branch-outcome block (the paper's "next stage") *)
  with_fetch_gaps : bool;
      (** the abstract I-side may supply nothing in a cycle (fetch
          lagging issue), matching the RTL's decoupled fetch queue *)
}

let tiny =
  {
    with_spill = false;
    with_conflict = false;
    with_interfaces = false;
    with_mem_nondet = false;
    pipe_window = 1;
    fill_counters = 0;
    dual_issue = false;
    io_credits = 0;
    with_branches = false;
    with_fetch_gaps = false;
  }

let default =
  {
    with_spill = true;
    with_conflict = true;
    with_interfaces = true;
    with_mem_nondet = true;
    pipe_window = 2;
    fill_counters = 0;
    dual_issue = false;
    io_credits = 0;
    with_branches = false;
    with_fetch_gaps = true;
  }

(* A middle size for tour-generation studies: large enough that the
   paper's 10,000-instruction limit bites, small enough to tour in
   seconds. *)
let medium =
  {
    with_spill = true;
    with_conflict = true;
    with_interfaces = true;
    with_mem_nondet = true;
    pipe_window = 2;
    fill_counters = 1;
    dual_issue = true;
    io_credits = 1;
    with_branches = false;
    with_fetch_gaps = false;
  }

(* [large] keeps the stateless fetch model: the gap choice doubles the
   per-state permutations without adding reachable control structure,
   and this preset exists to push raw state count. *)
let large =
  {
    with_spill = true;
    with_conflict = true;
    with_interfaces = true;
    with_mem_nondet = true;
    pipe_window = 3;
    fill_counters = 3;
    dual_issue = true;
    io_credits = 3;
    with_branches = false;
    with_fetch_gaps = false;
  }

(* Class coding shared with Rtl.control_obs: 0 bubble, 1 ALU, 2 LD,
   3 SD, 4 SWITCH, 5 SEND; the squashing-branch extension adds 6 BR. *)
let base_class_names = [| "BUBBLE"; "ALU"; "LD"; "SD"; "SWITCH"; "SEND" |]

let class_names cfg =
  if cfg.with_branches then Array.append base_class_names [| "BR" |]
  else base_class_names

(* ------------------------------------------------------------------ *)
(* Variable layout                                                    *)
(* ------------------------------------------------------------------ *)

(* State order: ifsm, dfsm, [spill], [store, conflict], pipe0..pipeW-1,
   [inbox_occ, outbox_occ].
   Cards (fc = fill_counters):
     ifsm:  0 idle, 1 req, 2..2+fc fill, 3+fc fixup          (4+fc)
     dfsm:  0 idle, 1 req, 2 critical, 3..3+fc background    (4+fc)
     spill: 0 empty, 1 holding, 2..2+fc writeback            (3+fc) *)

type layout = {
  boot : int;
  ifsm : int;
  dfsm : int;
  spill : int;  (* -1 when absent, like every optional slot *)
  store : int;
  conflict : int;
  pipe : int array;  (* indices of the window registers *)
  inbox_occ : int;
  outbox_occ : int;
  c_instr : int;
  c_ihit : int;
  c_dhit : int;
  c_dirty : int;
  c_same : int;
  c_inbox : int;
  c_outbox : int;
  c_memadv : int;
  c_pair : int;
  c_taken : int;
  c_gap : int;
}

let layout cfg =
  let s = ref 0 in
  let svar () = let i = !s in incr s; i in
  let c = ref 0 in
  let cvar () = let i = !c in incr c; i in
  let opt b f = if b then f () else -1 in
  let boot = svar () in
  let ifsm = svar () in
  let dfsm = svar () in
  let spill = opt cfg.with_spill svar in
  let store = opt cfg.with_conflict svar in
  let conflict = opt cfg.with_conflict svar in
  let pipe = Array.init (max 1 cfg.pipe_window) (fun _ -> svar ()) in
  let inbox_occ = opt (cfg.io_credits > 0) svar in
  let outbox_occ = opt (cfg.io_credits > 0) svar in
  let c_instr = cvar () in
  let c_ihit = cvar () in
  let c_dhit = cvar () in
  let c_dirty = opt cfg.with_spill cvar in
  let c_same = opt cfg.with_conflict cvar in
  let c_inbox = opt cfg.with_interfaces cvar in
  let c_outbox = opt cfg.with_interfaces cvar in
  let c_memadv = opt cfg.with_mem_nondet cvar in
  let c_pair = opt cfg.dual_issue cvar in
  let c_taken = opt cfg.with_branches cvar in
  let c_gap = opt cfg.with_fetch_gaps cvar in
  {
    boot; ifsm; dfsm; spill; store; conflict; pipe; inbox_occ; outbox_occ;
    c_instr; c_ihit; c_dhit; c_dirty; c_same; c_inbox; c_outbox; c_memadv;
    c_pair; c_taken; c_gap;
  }

let counting_values prefix n =
  Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let state_vars cfg =
  let fc = cfg.fill_counters in
  let ifsm_values =
    Array.concat
      [ [| "idle"; "req" |]; counting_values "fill" (fc + 1); [| "fixup" |] ]
  in
  let dfsm_values =
    Array.concat
      [ [| "idle"; "req"; "critical" |]; counting_values "bg" (fc + 1) ]
  in
  let spill_values =
    Array.concat [ [| "empty"; "holding" |]; counting_values "wb" (fc + 1) ]
  in
  List.concat
    [
      (* The boot flag distinguishes the reset state, which hardware
         never re-enters without asserting reset; its out-edges are
         the paper's "different initial conditions for the inputs",
         reachable only from reset. *)
      [ Model.var "boot" [| "reset"; "running" |] ];
      [ Model.var "icache_refill" ifsm_values ];
      [ Model.var "dcache_refill" dfsm_values ];
      (if cfg.with_spill then [ Model.var "fill_spill" spill_values ] else []);
      (if cfg.with_conflict then
         [ Model.var "store_buffer" [| "empty"; "pending" |];
           Model.var "conflict" [| "run"; "stall" |] ]
       else []);
      List.init (max 1 cfg.pipe_window) (fun i ->
          Model.var (Printf.sprintf "pipe%d" i) (class_names cfg));
      (if cfg.io_credits > 0 then
         [ Model.var "inbox_occ"
             (counting_values "n" (cfg.io_credits + 1));
           Model.var "outbox_occ"
             (counting_values "n" (cfg.io_credits + 1)) ]
       else []);
    ]

let choice_vars cfg =
  List.concat
    [
      [ Model.var "instr"
          (if cfg.with_branches then
             [| "ALU"; "LD"; "SD"; "SWITCH"; "SEND"; "BR" |]
           else [| "ALU"; "LD"; "SD"; "SWITCH"; "SEND" |]) ];
      [ Model.bool_var "i_hit" ];
      [ Model.bool_var "d_hit" ];
      (if cfg.with_spill then [ Model.bool_var "dirty_victim" ] else []);
      (if cfg.with_conflict then [ Model.bool_var "same_line" ] else []);
      (if cfg.with_interfaces then
         [ Model.bool_var "inbox_ready"; Model.bool_var "outbox_ready" ]
       else []);
      (if cfg.with_mem_nondet then [ Model.bool_var "mem_adv" ] else []);
      (if cfg.dual_issue then [ Model.bool_var "pair_avail" ] else []);
      (if cfg.with_branches then [ Model.bool_var "br_taken" ] else []);
      (if cfg.with_fetch_gaps then [ Model.bool_var "fetch_gap" ] else []);
    ]

(* ------------------------------------------------------------------ *)
(* Transition function                                                *)
(* ------------------------------------------------------------------ *)

(* Writes the next state into [out] (same length as [st]) and returns
   the number of instructions issued.  Pure up to [out].  Choice
   [i] is [read i], read where it is used and only once the state
   tests that make it matter have passed, so state enumeration
   branches on as few choices as possible (see [Model.t.next_into]). *)
let transition_into cfg (l : layout) (st : int array) (read : int -> int)
    ~(out : int array) : int =
  let fc = cfg.fill_counters in
  let ifsm_fixup = 3 + fc in
  let dfsm_last_bg = 3 + fc in
  let spill_last_wb = 2 + fc in
  let get i default = if i < 0 then default else st.(i) in
  (* An absent choice reads as [default]. *)
  let chg i default = if i < 0 then default else read i in
  let ifsm = st.(l.ifsm) in
  let dfsm = st.(l.dfsm) in
  let spill = get l.spill 0 in
  let store = get l.store 0 in
  let w = Array.length l.pipe in
  let pipe = Array.map (fun i -> st.(i)) l.pipe in
  let head = pipe.(0) in
  let follow = if w >= 2 then pipe.(1) else 0 in
  let inbox_occ = get l.inbox_occ 0 in
  let outbox_occ = get l.outbox_occ 0 in
  let credits = cfg.io_credits in
  (* next values *)
  let ifsm' = ref ifsm in
  let dfsm' = ref dfsm in
  let spill' = ref spill in
  let store' = ref store in
  let conflict' = ref 0 in
  let pipe' = Array.copy pipe in
  let inbox_occ' = ref inbox_occ in
  let outbox_occ' = ref outbox_occ in
  let issued = ref 0 in
  (* --- abstract Inbox/Outbox occupancy ---------------------------- *)
  (* With occupancy modelling, the inbox/outbox choice bits are
     arrival/drain events of the abstract Inbox/Outbox; otherwise they
     are direct ready lines, read at SWITCH and SEND. *)
  if credits > 0 then begin
    if inbox_occ < credits && chg l.c_inbox 1 = 1 then incr inbox_occ';
    if outbox_occ > 0 && chg l.c_outbox 1 = 1 then decr outbox_occ'
  end;
  (* --- memory port: D-refill, then spill, then I-refill ----------- *)
  let port_busy_now =
    dfsm >= 2 || (ifsm >= 2 && ifsm < ifsm_fixup) || spill >= 2
  in
  let d_finished = ref false in
  (if dfsm = 1 then begin
     if (not port_busy_now) && chg l.c_memadv 1 = 1 then dfsm' := 2
   end
   else if dfsm = 2 then begin
     (* critical word delivered; restart *)
     if chg l.c_memadv 1 = 1 then dfsm' := 3
   end
   else if dfsm >= 3 then
     if chg l.c_memadv 1 = 1 then
       if dfsm = dfsm_last_bg then begin
         dfsm' := 0;
         d_finished := true
       end
       else dfsm' := dfsm + 1);
  if !d_finished && spill = 1 then spill' := 2;
  (if spill >= 2 && cfg.with_spill then
     (* the write-back streams once the port is otherwise free *)
     if dfsm < 2 && !dfsm' <> 2 && chg l.c_memadv 1 = 1 then
       if spill = spill_last_wb then spill' := 0 else spill' := spill + 1);
  let d_granted = dfsm = 1 && !dfsm' = 2 in
  (if ifsm = 1 then begin
     if (not port_busy_now) && (not d_granted) && chg l.c_memadv 1 = 1 then
       ifsm' := 2
   end
   else if ifsm >= 2 && ifsm < ifsm_fixup then begin
     if chg l.c_memadv 1 = 1 then
       if ifsm = 2 + fc then ifsm' := ifsm_fixup else ifsm' := ifsm + 1
   end
   else if ifsm = ifsm_fixup then ifsm' := 0);
  (* --- issue ------------------------------------------------------ *)
  (* Frozen from refill request until critical-word restart. *)
  let d_frozen = dfsm = 1 || dfsm = 2 in
  let advanced = ref false in
  (if (not d_frozen) && head <> 0 then begin
     match head with
     | 1 (* ALU *) ->
       issued := 1;
       advanced := true;
       if cfg.dual_issue && follow = 1 && chg l.c_pair 0 = 1 then
         issued := 2
     | 2 | 3 (* LD / SD *) ->
       let conflicts =
         cfg.with_conflict && store = 1
         && (head = 3 || chg l.c_same 0 = 1)
       in
       if conflicts then begin
         conflict' := 1;
         (* The pending store drains during the stall — unless its
            line is still being refilled, which blocks the drain. *)
         if dfsm = 0 then store' := 0
       end
       else begin
         if store = 1 then store' := 0;
         if read l.c_dhit = 1 then begin
           issued := 1;
           advanced := true;
           if head = 3 && cfg.with_conflict then store' := 1
         end
         else if dfsm = 0 then begin
           if cfg.with_spill && chg l.c_dirty 0 = 1 then begin
             if spill = 0 then begin
               spill' := 1;
               dfsm' := 1;
               issued := 1;
               advanced := true
             end
           end
           else begin
             dfsm' := 1;
             issued := 1;
             advanced := true
           end
         end
       end
     | 4 (* SWITCH *) ->
       if (not cfg.with_interfaces)
          || (if credits > 0 then inbox_occ > 0 else chg l.c_inbox 1 = 1)
       then begin
         issued := 1;
         advanced := true;
         if credits > 0 then decr inbox_occ'
       end
     | 5 (* SEND *) ->
       if (not cfg.with_interfaces)
          || (if credits > 0 then outbox_occ < credits
              else chg l.c_outbox 1 = 1)
       then begin
         issued := 1;
         advanced := true;
         if credits > 0 then incr outbox_occ'
       end
     | 6 (* BR: squashing branch *) ->
       issued := 1;
       advanced := true
     | _ -> ()
   end);
  if (not d_frozen) && head = 0 then advanced := true;
  (* --- fetch / pipe shift ----------------------------------------- *)
  if !advanced then begin
    let fetch_new () =
      if !ifsm' <> 0 || ifsm <> 0 then 0 (* the I-stall feeds bubbles *)
      else if chg l.c_gap 0 = 1 then 0 (* fetch lagging behind issue *)
      else if read l.c_ihit = 1 then read l.c_instr + 1
      else begin
        ifsm' := 1;
        0
      end
    in
    (* Shift by the number of consumed slots and fetch into the
       first freed one; dual issue leaves the last slot empty. *)
    let consumed = if !issued = 2 then 2 else 1 in
    for i = 0 to w - 1 do
      pipe'.(i) <- (if i + consumed < w then pipe.(i + consumed) else 0)
    done;
    pipe'.(w - consumed) <- fetch_new ();
    (* A taken squashing branch kills every younger instruction and
       redirects fetch; the abstract branch-outcome block decides. *)
    if cfg.with_branches && head = 6 && chg l.c_taken 0 = 1 then begin
      for i = 0 to w - 1 do
        pipe'.(i) <- 0
      done;
      pipe'.(w - 1) <- fetch_new ()
    end
  end;
  (* clamp occupancies *)
  if credits > 0 then begin
    if !inbox_occ' < 0 then inbox_occ' := 0;
    if !inbox_occ' > credits then inbox_occ' := credits;
    if !outbox_occ' < 0 then outbox_occ' := 0;
    if !outbox_occ' > credits then outbox_occ' := credits
  end;
  Array.blit st 0 out 0 (Array.length st);
  out.(l.boot) <- 1;
  out.(l.ifsm) <- !ifsm';
  out.(l.dfsm) <- !dfsm';
  if l.spill >= 0 then out.(l.spill) <- !spill';
  if l.store >= 0 then out.(l.store) <- !store';
  if l.conflict >= 0 then out.(l.conflict) <- !conflict';
  Array.iteri (fun i idx -> out.(idx) <- pipe'.(i)) l.pipe;
  if l.inbox_occ >= 0 then out.(l.inbox_occ) <- !inbox_occ';
  if l.outbox_occ >= 0 then out.(l.outbox_occ) <- !outbox_occ';
  !issued

let transition cfg l st ch =
  let out = Array.make (Array.length st) 0 in
  let issued = transition_into cfg l st (Array.get ch) ~out in
  (out, issued)

let model cfg =
  let l = layout cfg in
  let svars = state_vars cfg in
  let reset = List.map (fun _ -> 0) svars in
  Model.create ~name:"pp_control" ~state_vars:svars
    ~choice_vars:(choice_vars cfg) ~reset
    ~next:(fun st ch -> fst (transition cfg l st ch))
    ~next_into:(fun st read dst ->
      ignore (transition_into cfg l st read ~out:dst))
    ()

let instructions_of_edge cfg ~src ~choice =
  snd (transition cfg (layout cfg) src choice)

let valuation_of_obs cfg (o : Rtl.control_obs) =
  let l = layout cfg in
  let top =
    Array.fold_left max
      (max l.boot
      (max l.ifsm
         (max l.dfsm
            (max l.spill
               (max l.store
                  (max l.conflict (max l.inbox_occ l.outbox_occ)))))))
      l.pipe
  in
  let v = Array.make (top + 1) 0 in
  v.(l.boot) <- 1;  (* RTL observations are always post-reset *)
  let fc = cfg.fill_counters in
  v.(l.ifsm) <- (if o.Rtl.o_ifsm = 3 then 3 + fc else o.Rtl.o_ifsm);
  v.(l.dfsm) <- o.Rtl.o_dfsm;
  if l.spill >= 0 then v.(l.spill) <- o.Rtl.o_spill;
  if l.store >= 0 then v.(l.store) <- o.Rtl.o_store;
  if l.conflict >= 0 then
    v.(l.conflict) <- (if o.Rtl.o_conflict then 1 else 0);
  v.(l.pipe.(0)) <- o.Rtl.o_head;
  if Array.length l.pipe >= 2 then v.(l.pipe.(1)) <- o.Rtl.o_follow;
  v
