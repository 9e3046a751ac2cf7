open Avp_pp
module Coverage = Avp_harness.Coverage
module Drive = Avp_harness.Drive
module Obs = Avp_obs.Obs

(* Instruction-level coverage-guided fuzzing for the Protocol
   Processor: where {!Loop} mutates abstract choice sequences and
   executes them on the translated HDL, this loop mutates concrete
   programs (plus their Inbox/Outbox back-pressure schedule) and
   executes them on the pipelined RTL, fed back by the same arc
   coverage the harness measures ({!Avp_harness.Coverage.run_delta}).
   Its kept corpus is a stimulus list shaped for
   {!Avp_harness.Campaign.table_2_1}'s third method. *)

type entry = {
  program : Isa.t array;  (** no trailing [Halt] *)
  inbox_mask : int;  (** >= 2; Inbox stalls on [c mod inbox_mask = 0] *)
  outbox_mask : int;  (** >= 2 *)
}

type config = {
  seed : int;
  budget : int;  (** candidate executions *)
  init_len : int;
  max_len : int;
  max_cycles : int;  (** per-run RTL cycle bound *)
}

let default_config =
  { seed = 0; budget = 96; init_len = 24; max_len = 64; max_cycles = 4_000 }

type kept = {
  k_entry : entry;
  k_index : int;  (** which executed candidate earned the keep *)
  k_gain : Avp_obs.Coverage.counts;
}

type result = {
  config : config;
  executed : int;
  kept : kept array;
  coverage : Coverage.t;
  instructions : int;  (** total instructions across executed candidates *)
}

let pool_lines = 16
let line_words = Rtl.default_config.Rtl.line_words
let mem_init () = List.init (pool_lines * line_words) (fun a -> (a, 0x100 + a))

(* Appends [Halt], builds the cyclic ready schedule from the masks,
   and provisions the Inbox and memory pool exactly as the random
   baseline does. *)
let stimulus_of_entry (e : entry) : Drive.stimulus =
  let program = Array.append e.program [| Isa.Halt |] in
  let im = max 2 e.inbox_mask and om = max 2 e.outbox_mask in
  let switches =
    Array.fold_left
      (fun n i -> if Isa.classify i = Isa.SWITCH then n + 1 else n)
      0 program
  in
  {
    Drive.program;
    ready = (fun c -> (c mod im <> 0, c mod om <> 1));
    inbox = List.init (switches + 8) (fun i -> 0x7000 + i);
    mem_init = mem_init ();
    source_edges = 0;
  }

(* The same biased class mix and wide address pool as the pure-random
   baseline — the fuzzer starts from the baseline's distribution and
   lets coverage feedback do the biasing. *)
let classes =
  [| Isa.LD; Isa.LD; Isa.SD; Isa.SD; Isa.ALU; Isa.ALU; Isa.SWITCH; Isa.SEND |]

let wide_pool = 128 * line_words

let random_instr rng =
  let addr () = Random.State.int rng wide_pool in
  let cls = classes.(Random.State.int rng (Array.length classes)) in
  Isa.random_of_class rng cls ~addr

let random_mask rng = 2 + Random.State.int rng 40

let random_entry rng ~len =
  {
    program = Array.init len (fun _ -> random_instr rng);
    inbox_mask = random_mask rng;
    outbox_mask = random_mask rng;
  }

let clamp_mask m = max 2 m
let nudge_reg rng r = if Random.State.bool rng then (r + 1) land 31 else (r + 31) land 31

(* Off-by-one on the field most likely to flip a control conjunction:
   the immediate for memory and branch forms, the register for the
   interface forms. *)
let field_tweak rng (i : Isa.t) : Isa.t =
  let bump v = if Random.State.bool rng then v + 1 else v - 1 in
  match i with
  | Isa.Lw (rd, rs, off) -> Isa.Lw (rd, rs, bump off)
  | Isa.Sw (rs2, rs1, off) -> Isa.Sw (rs2, rs1, bump off)
  | Isa.Alui (op, rd, rs, imm) -> Isa.Alui (op, rd, rs, bump imm)
  | Isa.Beq (a, b, off) -> Isa.Beq (a, b, bump off)
  | Isa.Bne (a, b, off) -> Isa.Bne (a, b, bump off)
  | Isa.Send r -> Isa.Send (nudge_reg rng r)
  | Isa.Switch r -> Isa.Switch (nudge_reg rng r)
  | Isa.Alu (op, rd, rs1, rs2) -> Isa.Alu (op, rd, nudge_reg rng rs1, rs2)
  | (Isa.Nop | Isa.Halt) -> random_instr rng

let num_ops = 7

let mutate rng ~max_len (corpus : entry array) (seed : entry) : entry =
  let n = Array.length seed.program in
  let point e =
    if Array.length e.program = 0 then e
    else begin
      let p = Array.copy e.program in
      let i = Random.State.int rng (Array.length p) in
      p.(i) <- random_instr rng;
      { e with program = p }
    end
  in
  match Random.State.int rng num_ops with
  | 0 -> point seed
  | 1 when n > 0 ->
    (* class-preserving re-roll: same control class, fresh operands *)
    let p = Array.copy seed.program in
    let i = Random.State.int rng n in
    let addr () = Random.State.int rng wide_pool in
    p.(i) <- Isa.random_of_class rng (Isa.classify p.(i)) ~addr;
    { seed with program = p }
  | 2 when n > 0 ->
    let p = Array.copy seed.program in
    let i = Random.State.int rng n in
    p.(i) <- field_tweak rng p.(i);
    { seed with program = p }
  | 3 when Array.length corpus > 0 ->
    (* splice: our prefix, another entry's suffix *)
    let other = corpus.(Random.State.int rng (Array.length corpus)) in
    let m = Array.length other.program in
    if n = 0 || m = 0 then point seed
    else begin
      let cut_a = 1 + Random.State.int rng n in
      let cut_b = Random.State.int rng m in
      let p =
        Array.append (Array.sub seed.program 0 cut_a)
          (Array.sub other.program cut_b (m - cut_b))
      in
      let p =
        if Array.length p > max_len then Array.sub p 0 max_len else p
      in
      { seed with program = p }
    end
  | 4 when n > 1 -> { seed with program = Array.sub seed.program 0 (1 + Random.State.int rng (n - 1)) }
  | 5 when n < max_len ->
    let extra = 1 + Random.State.int rng (min 8 (max_len - n)) in
    { seed with program = Array.append seed.program (Array.init extra (fun _ -> random_instr rng)) }
  | 6 ->
    let bump m = clamp_mask (if Random.State.bool rng then m + 1 else m - 1) in
    if Random.State.bool rng then { seed with inbox_mask = bump seed.inbox_mask }
    else { seed with outbox_mask = bump seed.outbox_mask }
  | _ -> point seed

let run ?rtl_config ?progress ~(config : config) cfg graph =
  let rng = Random.State.make [| 0x69736166; config.seed |] in
  let acc = Coverage.create cfg graph in
  let keeps = ref [] in
  let weights = ref [] in  (* parallel to keeps: 1 + arcs gained *)
  let n_kept = ref 0 in
  let instructions = ref 0 in
  let pick_parent corpus =
    let ws = Array.of_list (List.rev !weights) in
    let total = Array.fold_left ( + ) 0 ws in
    let r = Random.State.int rng total in
    let acc_w = ref 0 and chosen = ref 0 in
    (try
       Array.iteri
         (fun i w ->
           acc_w := !acc_w + w;
           if r < !acc_w then begin
             chosen := i;
             raise Exit
           end)
         ws
     with Exit -> ());
    corpus.(!chosen)
  in
  for index = 0 to config.budget - 1 do
    let corpus =
      Array.of_list (List.rev_map (fun k -> k.k_entry) !keeps)
    in
    let cand =
      if !n_kept = 0 then random_entry rng ~len:config.init_len
      else mutate rng ~max_len:config.max_len corpus (pick_parent corpus)
    in
    instructions := !instructions + Array.length cand.program + 1;
    let t0 = Obs.Clock.now_s () in
    let gain =
      Coverage.run_delta ?config:rtl_config ~max_cycles:config.max_cycles acc
        (stimulus_of_entry cand)
    in
    if Obs.enabled () then
      Obs.complete ~cat:"fuzz" "fuzz.exec"
        ~dur_s:(Obs.Clock.now_s () -. t0)
        ~args:
          [
            ("candidate", Obs.Int index);
            ("instructions", Obs.Int (Array.length cand.program + 1));
          ];
    if Avp_obs.Coverage.progress gain then begin
      keeps := { k_entry = cand; k_index = index; k_gain = gain } :: !keeps;
      weights := (1 + gain.Avp_obs.Coverage.c_arcs) :: !weights;
      incr n_kept
    end;
    match progress with
    | Some p -> Avp_obs.Progress.tick p
    | None -> ()
  done;
  {
    config;
    executed = config.budget;
    kept = Array.of_list (List.rev !keeps);
    coverage = Coverage.result acc;
    instructions = !instructions;
  }

let stimuli (r : result) =
  Array.to_list (Array.map (fun k -> stimulus_of_entry k.k_entry) r.kept)
