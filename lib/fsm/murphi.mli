(** Synchronous Murphi source emission.

    The paper's translator emits Synchronous Murphi text with a
    "mostly one-to-one syntactic correspondence" to the stylized
    Verilog.  This module reproduces that surface: given a translated
    design it prints variable declarations (state variables updated by
    the implicit clock), the nondeterministic choice declarations for
    the abstract blocks, the start state and the synchronous update
    rule.  The output is documentation of the model the enumerator
    runs; it is not re-parsed. *)

val emit : Translate.result -> string

