type effect_ =
  | Reg_write of Isa.reg * int
  | Mem_write of int * int
  | Outbox_send of int

let pp_effect ppf = function
  | Reg_write (r, v) -> Format.fprintf ppf "r%d <- 0x%x" r v
  | Mem_write (a, v) -> Format.fprintf ppf "mem[0x%x] <- 0x%x" a v
  | Outbox_send v -> Format.fprintf ppf "send 0x%x" v

let effect_equal (a : effect_) (b : effect_) = a = b

type t = {
  regs : int array;
  mem : (int, int) Hashtbl.t;
  mutable pc : int;
  program : Isa.t array;
  inbox : int Queue.t;
  mutable effects_rev : effect_ list;
  mutable halted_ : bool;
  mutable icount : int;
  mutable underflow : bool;
}

let mask32 v = v land 0xffffffff

let create ?(mem_init = []) ~program ~inbox () =
  let mem = Hashtbl.create 64 in
  List.iter (fun (a, v) -> Hashtbl.replace mem a (mask32 v)) mem_init;
  let q = Queue.create () in
  List.iter (fun v -> Queue.add (mask32 v) q) inbox;
  {
    regs = Array.make 32 0;
    mem;
    pc = 0;
    program;
    inbox = q;
    effects_rev = [];
    halted_ = false;
    icount = 0;
    underflow = false;
  }

let halted t = t.halted_
let reg t r = t.regs.(r)
let mem_word t a = Option.value ~default:0 (Hashtbl.find_opt t.mem a)
let effects t = List.rev t.effects_rev
let inbox_underflow t = t.underflow

let outbox t =
  List.rev
    (List.filter_map
       (function Outbox_send v -> Some v | Reg_write _ | Mem_write _ -> None)
       t.effects_rev)

let sign32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let alu op a b =
  let open Isa in
  match op with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Slt -> if sign32 a < sign32 b then 1 else 0

let write_reg t r v =
  if r <> 0 then begin
    t.regs.(r) <- mask32 v;
    t.effects_rev <- Reg_write (r, mask32 v) :: t.effects_rev
  end

(* Execute one instruction; false once halted (or the PC runs off the
   program). *)
let step t =
  if t.halted_ || t.pc < 0 || t.pc >= Array.length t.program then begin
    t.halted_ <- true;
    false
  end
  else begin
    let instr = t.program.(t.pc) in
    t.icount <- t.icount + 1;
    let next_pc = ref (t.pc + 1) in
    (match instr with
     | Isa.Nop -> ()
     | Isa.Halt -> t.halted_ <- true
     | Isa.Alu (op, rd, rs1, rs2) ->
       write_reg t rd (alu op t.regs.(rs1) t.regs.(rs2))
     | Isa.Alui (op, rd, rs1, imm) ->
       write_reg t rd (alu op t.regs.(rs1) (mask32 imm))
     | Isa.Lw (rd, rs, imm) ->
       let addr = mask32 (t.regs.(rs) + imm) in
       write_reg t rd (mem_word t addr)
     | Isa.Sw (rs2, rs1, imm) ->
       let addr = mask32 (t.regs.(rs1) + imm) in
       let v = t.regs.(rs2) in
       Hashtbl.replace t.mem addr v;
       t.effects_rev <- Mem_write (addr, v) :: t.effects_rev
     | Isa.Beq (ra, rb, off) ->
       if t.regs.(ra) = t.regs.(rb) then next_pc := t.pc + 1 + off
     | Isa.Bne (ra, rb, off) ->
       if t.regs.(ra) <> t.regs.(rb) then next_pc := t.pc + 1 + off
     | Isa.Send r ->
       t.effects_rev <- Outbox_send t.regs.(r) :: t.effects_rev
     | Isa.Switch rd ->
       let v =
         match Queue.take_opt t.inbox with
         | Some v -> v
         | None ->
           t.underflow <- true;
           0
       in
       write_reg t rd v);
    if not t.halted_ then t.pc <- !next_pc;
    not t.halted_
  end

let run ?(max_steps = 1_000_000) t =
  let rec loop n = if n > 0 && step t then loop (n - 1) in
  loop max_steps
