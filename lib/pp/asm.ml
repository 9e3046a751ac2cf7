exception Error of string * int

let fail line fmt = Format.kasprintf (fun m -> raise (Error (m, line))) fmt

let strip_comment line =
  let cut c s =
    match String.index_opt s c with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  cut ';' (cut '#' line)

let tokenize_line s =
  String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) s)
  |> List.filter (fun t -> t <> "")

let parse_reg lineno tok =
  let bad () = fail lineno "bad register %S" tok in
  if String.length tok < 2 || (tok.[0] <> 'r' && tok.[0] <> 'R') then bad ();
  match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
  | Some n when n >= 0 && n <= 31 -> n
  | Some _ | None -> bad ()

let parse_int lineno tok =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> fail lineno "bad immediate %S" tok

(* off(rs) or plain immediate (implicit r0 base) *)
let parse_mem lineno tok =
  match String.index_opt tok '(' with
  | None -> (parse_int lineno tok, 0)
  | Some i ->
    if tok.[String.length tok - 1] <> ')' then
      fail lineno "bad memory operand %S" tok;
    let off = parse_int lineno (String.sub tok 0 i) in
    let rs =
      parse_reg lineno (String.sub tok (i + 1) (String.length tok - i - 2))
    in
    (off, rs)

let alu_ops =
  [ ("add", Isa.Add); ("sub", Isa.Sub); ("and", Isa.And); ("or", Isa.Or);
    ("xor", Isa.Xor); ("slt", Isa.Slt) ]

type line_instr =
  | Ready of Isa.t
  | Branch of bool * int * int * string  (* is_beq, ra, rb, label *)

let assemble src =
  let lines = String.split_on_char '\n' src in
  let labels = Hashtbl.create 8 in
  let items = ref [] in
  let count = ref 0 in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then begin
        (* Leading labels, possibly several. *)
        let rec strip_labels line =
          match String.index_opt line ':' with
          | Some ci
            when String.for_all
                   (fun c ->
                     (c >= 'a' && c <= 'z')
                     || (c >= 'A' && c <= 'Z')
                     || (c >= '0' && c <= '9')
                     || c = '_')
                   (String.sub line 0 ci) ->
            let name = String.sub line 0 ci in
            if Hashtbl.mem labels name then
              fail lineno "duplicate label %s" name;
            Hashtbl.replace labels name !count;
            strip_labels
              (String.trim
                 (String.sub line (ci + 1) (String.length line - ci - 1)))
          | _ -> line
        in
        let line = strip_labels line in
        if line <> "" then begin
          let item =
            match tokenize_line line with
            | [ "nop" ] -> Ready Isa.Nop
            | [ "halt" ] -> Ready Isa.Halt
            | [ op; rd; rs1; rs2 ] when List.mem_assoc op alu_ops ->
              Ready
                (Isa.Alu
                   ( List.assoc op alu_ops,
                     parse_reg lineno rd,
                     parse_reg lineno rs1,
                     parse_reg lineno rs2 ))
            | [ op; rd; rs1; imm ]
              when String.length op > 1
                   && op.[String.length op - 1] = 'i'
                   && List.mem_assoc
                        (String.sub op 0 (String.length op - 1))
                        alu_ops ->
              Ready
                (Isa.Alui
                   ( List.assoc (String.sub op 0 (String.length op - 1))
                       alu_ops,
                     parse_reg lineno rd,
                     parse_reg lineno rs1,
                     parse_int lineno imm ))
            | [ "lw"; rd; mem ] ->
              let off, rs = parse_mem lineno mem in
              Ready (Isa.Lw (parse_reg lineno rd, rs, off))
            | [ "sw"; rs2; mem ] ->
              let off, rs1 = parse_mem lineno mem in
              Ready (Isa.Sw (parse_reg lineno rs2, rs1, off))
            | [ "beq"; ra; rb; target ] ->
              (match int_of_string_opt target with
               | Some off ->
                 Ready
                   (Isa.Beq (parse_reg lineno ra, parse_reg lineno rb, off))
               | None ->
                 Branch
                   (true, parse_reg lineno ra, parse_reg lineno rb, target))
            | [ "bne"; ra; rb; target ] ->
              (match int_of_string_opt target with
               | Some off ->
                 Ready
                   (Isa.Bne (parse_reg lineno ra, parse_reg lineno rb, off))
               | None ->
                 Branch
                   (false, parse_reg lineno ra, parse_reg lineno rb, target))
            | [ "send"; r ] -> Ready (Isa.Send (parse_reg lineno r))
            | [ "switch"; r ] -> Ready (Isa.Switch (parse_reg lineno r))
            | op :: _ -> fail lineno "unknown instruction %S" op
            | [] -> assert false
          in
          items := (lineno, item) :: !items;
          incr count
        end
      end)
    lines;
  let items = List.rev !items in
  Array.of_list
    (List.mapi
       (fun pc (lineno, item) ->
         match item with
         | Ready i -> i
         | Branch (is_beq, ra, rb, label) ->
           (match Hashtbl.find_opt labels label with
            | None -> fail lineno "undefined label %s" label
            | Some target ->
              let off = target - (pc + 1) in
              if is_beq then Isa.Beq (ra, rb, off) else Isa.Bne (ra, rb, off)))
       items)

let disassemble program =
  (* Collect branch targets and name them. *)
  let targets = Hashtbl.create 8 in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Isa.Beq (_, _, off) | Isa.Bne (_, _, off) ->
        let t = pc + 1 + off in
        if t >= 0 && t < Array.length program && not (Hashtbl.mem targets t)
        then Hashtbl.replace targets t (Printf.sprintf "L%d" t)
      | _ -> ())
    program;
  let buf = Buffer.create 256 in
  Array.iteri
    (fun pc instr ->
      (match Hashtbl.find_opt targets pc with
       | Some l -> Buffer.add_string buf (l ^ ":\n")
       | None -> ());
      let branch_target off =
        let t = pc + 1 + off in
        match Hashtbl.find_opt targets t with
        | Some l -> l
        | None -> string_of_int off
      in
      let text =
        match instr with
        | Isa.Beq (ra, rb, off) ->
          Printf.sprintf "beq r%d, r%d, %s" ra rb (branch_target off)
        | Isa.Bne (ra, rb, off) ->
          Printf.sprintf "bne r%d, r%d, %s" ra rb (branch_target off)
        | _ -> Format.asprintf "%a" Isa.pp instr
      in
      Buffer.add_string buf ("    " ^ text ^ "\n"))
    program;
  Buffer.contents buf

