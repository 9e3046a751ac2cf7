type config = {
  dcache_sets : int;
  dcache_ways : int;
  line_words : int;
  icache_lines : int;
  mem_latency : int;
  fetch_buffer : int;
  bugs : Bugs.t;
  perf_redrive : bool;
      (* the paper's Bug #5 backstory: the refill logic erroneously
         implements the older restart policy and drives the data a
         second time — "in itself a performance bug which our result
         comparison does not find" *)
}

let default_config =
  {
    dcache_sets = 4;
    dcache_ways = 2;
    line_words = 4;
    icache_lines = 4;
    mem_latency = 2;
    fetch_buffer = 2;
    bugs = Bugs.none;
    perf_redrive = false;
  }

(* Deterministic "garbage" values so bug corruption is observable and
   reproducible; each bug uses its own marker. *)
let garbage bug = 0xDEAD0000 lor bug

(* ------------------------------------------------------------------ *)
(* Control FSM states (Figure 3.2)                                    *)
(* ------------------------------------------------------------------ *)

type ifsm =
  | I_idle
  | I_req of int  (* missing line address *)
  | I_fill of int * int  (* line address, words remaining *)
  | I_fixup  (* restore instruction registers after the I-stall *)

type dfsm =
  | D_idle
  | D_req  (* waiting for the memory port *)
  | D_wait of int  (* memory latency countdown to the critical word *)
  | D_fill_blocking  (* critical word arrives this cycle *)
  | D_fill_bg of int  (* background fill, words remaining *)

type spill_state =
  | Sp_empty
  | Sp_holding  (* victim parked, fill in progress *)
  | Sp_writeback of int  (* words remaining on the port *)

(* A pending memory operation travelling with the D-refill. *)
type pending_mem =
  | Pm_load of Isa.reg * int  (* destination, address *)
  | Pm_store of int * int  (* address, value *)

type fetched = { f_instr : Isa.t; f_pc : int }

type probe = {
  p_cycle : int;
  p_membus : int option;
  p_membus_valid : bool;
  p_glitch : bool;
  p_external_stall : bool;
  p_dstall : bool;
}

type control_obs = {
  o_ifsm : int;
  o_dfsm : int;
  o_spill : int;
  o_store : int;
  o_conflict : bool;
  o_ext : bool;
  o_istall : bool;
  o_dstall : bool;
  o_advance : bool;
  o_head : int;  (* 0 bubble, 1 ALU, 2 LD, 3 SD, 4 SWITCH, 5 SEND *)
  o_follow : int;
}

type t = {
  cfg : config;
  program : Isa.t array;
  mem : (int, int) Hashtbl.t;
  regs : int array;
  inbox : int Queue.t;
  (* I-cache: direct mapped, tag per line slot. *)
  itags : int option array;
  ipoison : bool array;  (* Bug 1: line filled with corrupted data *)
  (* D-cache. *)
  dtags : int option array array;  (* set -> way -> line address *)
  ddirty : bool array array;
  ddata : int array array array;  (* set -> way -> word *)
  dlru : int array;  (* way to evict next *)
  (* Spill buffer. *)
  mutable spill : spill_state;
  mutable spill_line : int;
  mutable spill_data : int array;
  (* Refill machinery. *)
  mutable ifsm : ifsm;
  mutable dfsm : dfsm;
  mutable dfill_line : int;  (* line being filled *)
  mutable dfill_critical : int;  (* word offset fetched first *)
  mutable dfill_next_word : int;  (* rotation counter for background fill *)
  mutable dfill_way : int;
  mutable dfill_set : int;
  mutable pending_mem : pending_mem option;
  mutable bug1_armed : bool;  (* I-fill will deliver corrupted data *)
  mutable dfill_handoff : bool;  (* the D-side released the port this cycle *)
  (* Split-store machine. *)
  mutable store_buf : (int * int) option;  (* address, value *)
  (* Bug 3: the conflict-stall address latch was transparent. *)
  mutable bug3_pending : bool;
  (* Bug 5 rewrite window. *)
  mutable bug5_hold : (Isa.reg * int) option;  (* rd, correct value *)
  mutable glitch_now : bool;
  (* Pipeline. *)
  fetch_q : fetched Queue.t;
  mutable pc : int;
  mutable halted_ : bool;
  mutable retired : int;
  mutable cycle_ : int;
  mutable effects_rev : Spec.effect_ list;
  (* Per-cycle observation. *)
  mutable obs : control_obs;
  mutable membus : int option;
  mutable membus_valid : bool;
  mutable tracing : bool;
  mutable probes_rev : probe list;
  mutable skip_next_fetch : bool;  (* Bug 4: lost fix-up drops a fetch *)
}

let mask32 v = v land 0xffffffff

let create ?(config = default_config) ?(mem_init = []) ~program ~inbox () =
  let mem = Hashtbl.create 256 in
  List.iter (fun (a, v) -> Hashtbl.replace mem a (mask32 v)) mem_init;
  let q = Queue.create () in
  List.iter (fun v -> Queue.add (mask32 v) q) inbox;
  {
    cfg = config;
    program;
    mem;
    regs = Array.make 32 0;
    inbox = q;
    itags = Array.make config.icache_lines None;
    ipoison = Array.make config.icache_lines false;
    dtags =
      Array.init config.dcache_sets (fun _ ->
          Array.make config.dcache_ways None);
    ddirty =
      Array.init config.dcache_sets (fun _ ->
          Array.make config.dcache_ways false);
    ddata =
      Array.init config.dcache_sets (fun _ ->
          Array.init config.dcache_ways (fun _ ->
              Array.make config.line_words 0));
    dlru = Array.make config.dcache_sets 0;
    spill = Sp_empty;
    spill_line = 0;
    spill_data = Array.make config.line_words 0;
    ifsm = I_idle;
    dfsm = D_idle;
    dfill_line = 0;
    dfill_critical = 0;
    dfill_next_word = 0;
    dfill_way = 0;
    dfill_set = 0;
    pending_mem = None;
    bug1_armed = false;
    dfill_handoff = false;
    store_buf = None;
    bug3_pending = false;
    bug5_hold = None;
    glitch_now = false;
    fetch_q = Queue.create ();
    pc = 0;
    halted_ = false;
    retired = 0;
    cycle_ = 0;
    effects_rev = [];
    obs =
      { o_ifsm = 0; o_dfsm = 0; o_spill = 0; o_store = 0; o_conflict = false;
        o_ext = false; o_istall = false; o_dstall = false; o_advance = false;
        o_head = 0; o_follow = 0 };
    membus = None;
    membus_valid = false;
    tracing = false;
    probes_rev = [];
    skip_next_fetch = false;
  }

let cycle t = t.cycle_
let halted t = t.halted_
let reg t r = t.regs.(r)
let instructions_retired t = t.retired
let effects t = List.rev t.effects_rev
let observe t = t.obs
let set_tracing t b = t.tracing <- b
let probes t = List.rev t.probes_rev

(* ------------------------------------------------------------------ *)
(* Address helpers                                                    *)
(* ------------------------------------------------------------------ *)

let line_of t addr = addr / t.cfg.line_words
let offset_of t addr = addr mod t.cfg.line_words
let dset_of t line = line mod t.cfg.dcache_sets

let mem_word t a = Option.value ~default:0 (Hashtbl.find_opt t.mem a)

(* Reads for a refill must see the spill buffer: the victim line may
   not have reached memory yet. *)
let backing_word t line offset =
  if (t.spill = Sp_holding || (match t.spill with Sp_writeback _ -> true | _ -> false))
     && t.spill_line = line
  then t.spill_data.(offset)
  else mem_word t ((line * t.cfg.line_words) + offset)

let dcache_lookup t line =
  let set = dset_of t line in
  let rec find way =
    if way >= t.cfg.dcache_ways then None
    else
      match t.dtags.(set).(way) with
      | Some l when l = line -> Some (set, way)
      | Some _ | None -> find (way + 1)
  in
  find 0

let icache_slot t pc = line_of t pc mod t.cfg.icache_lines

let icache_hit t pc =
  let line = line_of t pc in
  t.itags.(icache_slot t pc) = Some line

(* ------------------------------------------------------------------ *)
(* Effects                                                            *)
(* ------------------------------------------------------------------ *)

let log t e = t.effects_rev <- e :: t.effects_rev

let write_reg t r v =
  if r <> 0 then begin
    t.regs.(r) <- mask32 v;
    log t (Spec.Reg_write (r, mask32 v))
  end

(* ------------------------------------------------------------------ *)
(* External stall wire                                                *)
(* ------------------------------------------------------------------ *)

(* The Inbox/Outbox assert "wait" towards the PP whenever a switch or
   send is anywhere in the issue window while the unit is not ready —
   the asynchronous external stall condition of Bug #5. *)
let external_stall_wire t ~inbox_ready ~outbox_ready =
  let window_has cls =
    Queue.fold
      (fun acc f -> acc || Isa.classify f.f_instr = cls)
      false t.fetch_q
  in
  ((not inbox_ready) && window_has Isa.SWITCH)
  || ((not outbox_ready) && window_has Isa.SEND)

(* ------------------------------------------------------------------ *)
(* D-cache operations                                                 *)
(* ------------------------------------------------------------------ *)

(* Victim selection and spill; returns false when the refill cannot
   start yet (spill buffer still draining). *)
let start_dfill t addr =
  let line = line_of t addr in
  let set = dset_of t line in
  let way = t.dlru.(set) in
  let victim_dirty =
    t.ddirty.(set).(way) && t.dtags.(set).(way) <> None
  in
  if victim_dirty && t.spill <> Sp_empty then false
  else begin
    if victim_dirty then begin
      (* Fill-before-spill: park the dirty victim in the spill buffer
         so the fill can go first. *)
      (match t.dtags.(set).(way) with
       | Some victim_line ->
         t.spill <- Sp_holding;
         t.spill_line <- victim_line;
         Array.blit t.ddata.(set).(way) 0 t.spill_data 0 t.cfg.line_words
       | None -> ());
      t.ddirty.(set).(way) <- false
    end;
    t.dtags.(set).(way) <- None;
    t.dfill_line <- line;
    t.dfill_set <- set;
    t.dfill_way <- way;
    t.dfill_critical <- offset_of t addr;
    t.dfill_next_word <- 0;
    t.dfsm <- D_req;
    true
  end

(* The single memory port: D-refill has priority, then I-refill, then
   spill write-back. *)
let port_busy t =
  (match t.dfsm with
   | D_wait _ | D_fill_blocking | D_fill_bg _ -> true
   | D_idle | D_req -> false)
  || (match t.ifsm with I_fill _ -> true | I_idle | I_req _ | I_fixup -> false)
  || (match t.spill with Sp_writeback _ -> true | Sp_empty | Sp_holding -> false)

(* ------------------------------------------------------------------ *)
(* Memory machinery advance (start of cycle)                          *)
(* ------------------------------------------------------------------ *)

let complete_load t rd addr value =
  ignore addr;
  write_reg t rd value

let deliver_critical_word t ~ext_stall =
  let offset = t.dfill_critical in
  let value = backing_word t t.dfill_line offset in
  t.ddata.(t.dfill_set).(t.dfill_way).(offset) <- value;
  t.membus <- Some value;
  t.membus_valid <- true;
  (match t.pending_mem with
   | Some (Pm_load (rd, addr)) ->
     let next_is_ldst =
       match Queue.peek_opt t.fetch_q with
       | Some f -> Isa.uses_dcache f.f_instr
       | None -> false
     in
     let v =
       if Bugs.enabled t.cfg.bugs Bugs.Bug2 && t.ifsm <> I_idle then
         garbage 2
       else value
     in
     if
       (Bugs.enabled t.cfg.bugs Bugs.Bug5 && next_is_ldst)
       || t.cfg.perf_redrive
     then
       (* Enter the rewrite window: the data is driven a second time
          next cycle (the older restart policy).  With Bug #5 the
          glitch makes the outcome depend on an external stall; with
          only [perf_redrive] the value stays correct and the machine
          merely loses a cycle. *)
       t.bug5_hold <- Some (rd, v)
     else complete_load t rd addr v
   | Some (Pm_store (addr, v)) ->
     (* The missed store proceeds into the split-store buffer. *)
     t.store_buf <- Some (addr, v)
   | None -> ());
  (match t.pending_mem with
   | Some (Pm_load _) when t.bug5_hold <> None -> ()
   | _ -> t.pending_mem <- None);
  ignore ext_stall

let advance_memory t ~ext_stall =
  t.membus <- None;
  t.membus_valid <- false;
  t.glitch_now <- false;
  t.dfill_handoff <- false;
  (* Bug 5 window resolution: one cycle after the critical word. *)
  (match t.bug5_hold with
   | Some (rd, correct) ->
     t.glitch_now <- true;
     let v =
       if Bugs.enabled t.cfg.bugs Bugs.Bug5 && ext_stall then garbage 5
       else correct
     in
     (match t.pending_mem with
      | Some (Pm_load (_, addr)) -> complete_load t rd addr v
      | Some (Pm_store _) | None -> complete_load t rd 0 v);
     t.pending_mem <- None;
     t.bug5_hold <- None
   | None -> ());
  (* D-refill. *)
  (match t.dfsm with
   | D_idle -> ()
   | D_req ->
     if not (port_busy t) then t.dfsm <- D_wait t.cfg.mem_latency
   | D_wait n ->
     if n <= 1 then t.dfsm <- D_fill_blocking else t.dfsm <- D_wait (n - 1)
   | D_fill_blocking ->
     deliver_critical_word t ~ext_stall;
     let remaining = t.cfg.line_words - 1 in
     if remaining = 0 then begin
       t.dtags.(t.dfill_set).(t.dfill_way) <- Some t.dfill_line;
       t.dlru.(t.dfill_set) <- 1 - t.dfill_way;
       t.dfsm <- D_idle;
       t.dfill_handoff <- true;
       if t.spill = Sp_holding then
         t.spill <- Sp_writeback t.cfg.line_words
     end
     else t.dfsm <- D_fill_bg remaining
   | D_fill_bg remaining ->
     (* Stream the rest of the line, skipping the critical word. *)
     let rec next_offset k =
       let o = (t.dfill_critical + 1 + k) mod t.cfg.line_words in
       if o = t.dfill_critical then next_offset (k + 1) else o
     in
     let o = next_offset t.dfill_next_word in
     t.dfill_next_word <- t.dfill_next_word + 1;
     let value = backing_word t t.dfill_line o in
     t.ddata.(t.dfill_set).(t.dfill_way).(o) <- value;
     t.membus <- Some value;
     t.membus_valid <- true;
     if remaining <= 1 then begin
       t.dtags.(t.dfill_set).(t.dfill_way) <- Some t.dfill_line;
       t.dlru.(t.dfill_set) <- 1 - t.dfill_way;
       t.dfsm <- D_idle;
       t.dfill_handoff <- true;
       if t.spill = Sp_holding then
         t.spill <- Sp_writeback t.cfg.line_words
     end
     else t.dfsm <- D_fill_bg (remaining - 1));
  (* Spill write-back (uses the port when free). *)
  (match t.spill with
   | Sp_empty | Sp_holding -> ()
   | Sp_writeback n ->
     let words_done = t.cfg.line_words - n in
     Hashtbl.replace t.mem
       ((t.spill_line * t.cfg.line_words) + words_done)
       t.spill_data.(words_done);
     if n <= 1 then t.spill <- Sp_empty else t.spill <- Sp_writeback (n - 1));
  (* I-refill: Bug 1 arms when the I-request overlaps D-side port
     activity and the qualification is missing. *)
  (match t.ifsm with
   | I_idle | I_fixup -> ()
   | I_req line ->
     (* Bug 1 is a missing qualification on the port-handoff cycle:
        it arms only when the I-request is granted in the very cycle
        the D-side releases the memory port. *)
     if not (port_busy t) then begin
       if Bugs.enabled t.cfg.bugs Bugs.Bug1 && t.dfill_handoff then
         t.bug1_armed <- true;
       t.ifsm <- I_fill (line, t.cfg.line_words)
     end
   | I_fill (line, n) ->
     if n <= 1 then begin
       let slot = line mod t.cfg.icache_lines in
       t.itags.(slot) <- Some line;
       t.ipoison.(slot) <- t.bug1_armed;
       t.bug1_armed <- false;
       t.ifsm <- I_fixup
     end
     else t.ifsm <- I_fill (line, n - 1))

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

let sign32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let alu_exec op a b =
  let open Isa in
  match op with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Slt -> if sign32 a < sign32 b then 1 else 0

(* Drain the split-store buffer into the cache.  When the store's
   line is still being refilled the store waits in the buffer — its
   word would otherwise be overwritten by the streaming fill.  When
   the line was evicted between probe and drain, the write goes to
   wherever the line's data now lives: the spill buffer if it holds
   it, memory otherwise. *)
let drain_store t =
  match t.store_buf with
  | None -> ()
  | Some (addr, v) ->
    let line = line_of t addr in
    let refill_in_flight =
      (match t.dfsm with
       | D_req | D_wait _ | D_fill_blocking | D_fill_bg _ -> true
       | D_idle -> false)
      && t.dfill_line = line
    in
    (match dcache_lookup t line with
     | Some (set, way) ->
       t.ddata.(set).(way).(offset_of t addr) <- v;
       t.ddirty.(set).(way) <- true;
       t.dlru.(set) <- 1 - way;
       log t (Spec.Mem_write (addr, v));
       t.store_buf <- None
     | None ->
       if refill_in_flight then ()  (* hold until the fill completes *)
       else begin
         if t.spill <> Sp_empty && t.spill_line = line then
           t.spill_data.(offset_of t addr) <- v
         else Hashtbl.replace t.mem addr v;
         log t (Spec.Mem_write (addr, v));
         t.store_buf <- None
       end)

type issue_result =
  | Issued
  | Stalled_ext
  | Stalled_dmiss
  | Stalled_conflict

(* Second instruction of a dual-issue pair: plain ALU work, no RAW
   dependence on the first. *)
let pairable first second =
  match Isa.classify second.f_instr, second.f_instr with
  | Isa.ALU, (Isa.Alu _ | Isa.Alui _ | Isa.Nop) ->
    let raw =
      match Isa.writes first.f_instr with
      | None -> false
      | Some rd -> List.mem rd (Isa.reads second.f_instr)
    in
    (match first.f_instr with
     | Isa.Beq _ | Isa.Bne _ | Isa.Halt -> false
     | _ -> not raw)
  | _ -> false

let exec_simple t instr =
  match instr with
  | Isa.Nop -> ()
  | Isa.Halt -> t.halted_ <- true
  | Isa.Alu (op, rd, rs1, rs2) ->
    write_reg t rd (alu_exec op t.regs.(rs1) t.regs.(rs2))
  | Isa.Alui (op, rd, rs1, imm) ->
    write_reg t rd (alu_exec op t.regs.(rs1) (mask32 imm))
  | Isa.Lw _ | Isa.Sw _ | Isa.Beq _ | Isa.Bne _ | Isa.Send _ | Isa.Switch _
    ->
    invalid_arg "exec_simple"

(* Attempt to issue the head of the fetch queue.  Returns what
   happened so the stall FSM observation reflects this cycle. *)
let rec try_issue t ~inbox_ready ~outbox_ready ~istall_active =
  match Queue.peek_opt t.fetch_q with
  | None -> None
  | Some head ->
    let finish_issue ?(count = 1) () =
      ignore (Queue.pop t.fetch_q);
      t.retired <- t.retired + count
    in
    (match head.f_instr with
     | Isa.Halt when t.store_buf <> None ->
       (* Halt acts as a fence: the split-store buffer must drain
          before the machine stops. *)
       Some Stalled_conflict
     | Isa.Nop | Isa.Halt | Isa.Alu _ | Isa.Alui _ ->
       ignore (Queue.pop t.fetch_q);
       t.retired <- t.retired + 1;
       exec_simple t head.f_instr;
       (* Dual issue: a second independent ALU instruction may
          complete in the same cycle. *)
       (match Queue.peek_opt t.fetch_q with
        | Some second
          when (not t.halted_) && pairable head second ->
          ignore (Queue.pop t.fetch_q);
          t.retired <- t.retired + 1;
          exec_simple t second.f_instr
        | Some _ | None -> ());
       Some Issued
     | Isa.Beq (ra, rb, off) | Isa.Bne (ra, rb, off) ->
       let taken =
         match head.f_instr with
         | Isa.Beq _ -> t.regs.(ra) = t.regs.(rb)
         | _ -> t.regs.(ra) <> t.regs.(rb)
       in
       finish_issue ();
       if taken then begin
         (* Squash everything younger and redirect fetch. *)
         Queue.clear t.fetch_q;
         t.pc <- head.f_pc + 1 + off
       end;
       Some Issued
     | Isa.Send r ->
       if outbox_ready then begin
         finish_issue ();
         log t (Spec.Outbox_send t.regs.(r));
         Some Issued
       end
       else Some Stalled_ext
     | Isa.Switch rd ->
       if inbox_ready then begin
         finish_issue ();
         let v = Option.value ~default:0 (Queue.take_opt t.inbox) in
         write_reg t rd v;
         Some Issued
       end
       else Some Stalled_ext
     | Isa.Lw (rd, rs, imm) ->
       let addr = mask32 (t.regs.(rs) + imm) in
       (* Bug 3: the address latch was transparent during the previous
          conflict stall, so the re-issued load uses the following
          load/store's address instead of its own. *)
       let addr =
         if t.bug3_pending then begin
           t.bug3_pending <- false;
           bug3_address t addr
         end
         else addr
       in
       let line = line_of t addr in
       (* Conflict with a pending split store? *)
       (match t.store_buf with
        | Some (saddr, _) when line_of t saddr = line ->
          (* Conflict stall: the store must complete first; the load
             re-issues next cycle. *)
          let stale = backing_from_cache t addr in
          drain_store t;
          if Bugs.enabled t.cfg.bugs Bugs.Bug3 then t.bug3_pending <- true;
          if
            Bugs.enabled t.cfg.bugs Bugs.Bug6 && istall_active
            && dcache_lookup t line <> None
          then begin
            (* Stale data is forwarded to the load despite the drain:
               complete the load now with the old value. *)
            finish_issue ();
            write_reg t rd (Option.value ~default:(garbage 6) stale)
          end;
          Some Stalled_conflict
        | Some _ | None ->
          (match dcache_lookup t line with
           | Some (set, way) ->
             finish_issue ();
             write_reg t rd t.ddata.(set).(way).(offset_of t addr);
             t.dlru.(set) <- 1 - way;
             Some Issued
           | None ->
             (match t.dfsm with
              | D_idle ->
                if start_dfill t addr then begin
                  t.pending_mem <- Some (Pm_load (rd, addr));
                  ignore (Queue.pop t.fetch_q);
                  t.retired <- t.retired + 1
                end;
                Some Stalled_dmiss
              | D_req | D_wait _ | D_fill_blocking | D_fill_bg _ ->
                Some Stalled_dmiss)))
     | Isa.Sw (rs2, rs1, imm) ->
       let addr = mask32 (t.regs.(rs1) + imm) in
       let v = t.regs.(rs2) in
       let line = line_of t addr in
       (match t.store_buf with
        | Some _ ->
          (* Second store while one is pending: conflict stall; drain
             then retry next cycle. *)
          drain_store t;
          Some Stalled_conflict
        | None ->
          (match dcache_lookup t line with
           | Some _ ->
             (* Tag probe hits: the store data is written in a later
                cycle via the store buffer (split store). *)
             finish_issue ();
             t.store_buf <- Some (addr, v);
             Some Issued
           | None ->
             (match t.dfsm with
              | D_idle ->
                if start_dfill t addr then begin
                  t.pending_mem <- Some (Pm_store (addr, v));
                  ignore (Queue.pop t.fetch_q);
                  t.retired <- t.retired + 1
                end;
                Some Stalled_dmiss
              | D_req | D_wait _ | D_fill_blocking | D_fill_bg _ ->
                Some Stalled_dmiss))))

and backing_from_cache t addr =
  match dcache_lookup t (line_of t addr) with
  | Some (set, way) -> Some t.ddata.(set).(way).(offset_of t addr)
  | None -> None

and bug3_address t addr =
  (* The conflict-stall address latch is transparent: if the
     instruction following the stalled load is a load/store, its
     address leaks in.  The stalled load is at the queue head, so the
     follower is the second entry. *)
  let follower =
    let i = ref 0 in
    Queue.fold
      (fun acc f ->
        incr i;
        if !i = 2 && acc = None then Some f else acc)
      None t.fetch_q
  in
  match follower with
  | Some { f_instr = Isa.Lw (_, rs, imm); _ } -> mask32 (t.regs.(rs) + imm)
  | Some { f_instr = Isa.Sw (_, rs1, imm); _ } -> mask32 (t.regs.(rs1) + imm)
  | Some _ | None -> addr

(* ------------------------------------------------------------------ *)
(* Fetch                                                              *)
(* ------------------------------------------------------------------ *)

let fetch_instr t pc =
  if pc < 0 || pc >= Array.length t.program then Isa.Halt
  else if t.ipoison.(icache_slot t pc) then
    (* Bug 1: the line was filled from a mis-qualified interface;
       decode yields a wrong instruction. *)
    Isa.Alui (Isa.Add, 1, 0, 0xBAD)
  else t.program.(pc)

let try_fetch t ~ext_stall =
  if t.halted_ then ()
  else
    match t.ifsm with
    | I_req _ | I_fill _ -> ()
    | I_fixup ->
      (* One cycle to restore the instruction registers.  Bug 4: the
         fix-up is lost when an external stall (MemStall) is being
         held, dropping the next instruction. *)
      if Bugs.enabled t.cfg.bugs Bugs.Bug4 && ext_stall then
        t.skip_next_fetch <- true;
      t.ifsm <- I_idle
    | I_idle ->
      if Queue.length t.fetch_q < t.cfg.fetch_buffer
         && t.pc < Array.length t.program
      then begin
        if icache_hit t t.pc then begin
          if t.skip_next_fetch then begin
            t.skip_next_fetch <- false;
            t.pc <- t.pc + 1
          end
          else begin
            Queue.add { f_instr = fetch_instr t t.pc; f_pc = t.pc } t.fetch_q;
            t.pc <- t.pc + 1
          end
        end
        else t.ifsm <- I_req (line_of t t.pc)
      end

(* ------------------------------------------------------------------ *)
(* Cycle                                                              *)
(* ------------------------------------------------------------------ *)

let ifsm_code = function
  | I_idle -> 0
  | I_req _ -> 1
  | I_fill _ -> 2
  | I_fixup -> 3

let dfsm_code = function
  | D_idle -> 0
  | D_req | D_wait _ -> 1
  | D_fill_blocking -> 2
  | D_fill_bg _ -> 3

let spill_code = function
  | Sp_empty -> 0
  | Sp_holding -> 1
  | Sp_writeback _ -> 2

let class_code = function
  | None -> 0
  | Some f ->
    (match Isa.classify f.f_instr with
     | Isa.ALU -> 1
     | Isa.LD -> 2
     | Isa.SD -> 3
     | Isa.SWITCH -> 4
     | Isa.SEND -> 5)

let queue_nth q n =
  let i = ref 0 in
  Queue.fold
    (fun acc f ->
      incr i;
      if !i = n + 1 && acc = None then Some f else acc)
    None q

let step t ~inbox_ready ~outbox_ready =
  let ext_stall = external_stall_wire t ~inbox_ready ~outbox_ready in
  advance_memory t ~ext_stall;
  (* Default store-buffer drain: one cycle after the probe, unless a
     conflicting access already drained it. *)
  let store_pending_before = t.store_buf <> None in
  let istall_active = t.ifsm <> I_idle in
  let issue =
    if t.halted_ then None
    else if t.pending_mem <> None || t.bug5_hold <> None then
      (* A load/store is waiting on the refill: the pipe is frozen on
         a D-stall (critical-word-first ended the freeze already if
         pending_mem was cleared). *)
      Some Stalled_dmiss
    else try_issue t ~inbox_ready ~outbox_ready ~istall_active
  in
  (* Drain a pending split store when the cycle did not already. *)
  if store_pending_before && t.store_buf <> None then drain_store t;
  try_fetch t ~ext_stall;
  (* Running off the end of the program halts, like the specification,
     once every buffer has drained. *)
  if
    (not t.halted_)
    && t.pc >= Array.length t.program
    && Queue.is_empty t.fetch_q
    && t.pending_mem = None && t.bug5_hold = None && t.store_buf = None
    && t.ifsm = I_idle
  then t.halted_ <- true;
  let conflict =
    match issue with Some Stalled_conflict -> true | _ -> false
  in
  t.obs <-
    {
      o_ifsm = ifsm_code t.ifsm;
      o_dfsm = dfsm_code t.dfsm;
      o_spill = spill_code t.spill;
      o_store = (if t.store_buf = None then 0 else 1);
      o_conflict = conflict;
      o_ext = (match issue with Some Stalled_ext -> true | _ -> false);
      o_istall = istall_active;
      o_dstall =
        (match issue with Some Stalled_dmiss -> true | _ -> false);
      o_advance = (match issue with Some Issued -> true | _ -> false);
      o_head = class_code (queue_nth t.fetch_q 0);
      o_follow = class_code (queue_nth t.fetch_q 1);
    };
  if t.tracing then
    t.probes_rev <-
      {
        p_cycle = t.cycle_;
        p_membus = t.membus;
        p_membus_valid = t.membus_valid;
        p_glitch = t.glitch_now;
        p_external_stall = ext_stall;
        p_dstall = t.obs.o_dstall;
      }
      :: t.probes_rev;
  t.cycle_ <- t.cycle_ + 1

let run ?(max_cycles = 100_000) ?(ready = fun _ -> (true, true)) t =
  let rec loop () =
    if (not (halted t)) && cycle t < max_cycles then begin
      let inbox_ready, outbox_ready = ready (cycle t) in
      step t ~inbox_ready ~outbox_ready;
      loop ()
    end
  in
  loop ()
