(** Textual assembler and disassembler for the PP ISA.

    One instruction per line, comments with [;] or [#], labels as
    [name:] targets for branches.  Example:

    {v
        addi  r1, r0, 5
    loop:
        subi  r1, r1, 1
        bne   r1, r0, loop
        send  r1
        halt
    v} *)

exception Error of string * int  (** message, 1-based line *)

val assemble : string -> Isa.t array
(** @raise Error on syntax problems or undefined labels. *)

val disassemble : Isa.t array -> string
(** Round-trips through {!assemble} (labels are synthesized for branch
    targets). *)

