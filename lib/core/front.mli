(** The front end every command shares: read a design, parse,
    elaborate and translate it, enumerate its state graph and tour it.

    A [file] argument names an annotated Verilog file, or ["pp"] for
    the built-in Protocol Processor control module.  {!model} also
    accepts a [.sml] model and the abstract control FSM presets
    ["pp-model"], ["pp-model-medium"] and ["pp-model-large"]. *)

val read : string -> string
(** The source text of [file]. *)

val elaborate : ?top:string -> string -> Avp_hdl.Elab.t

val translate :
  ?top:string -> string -> Avp_hdl.Ast.design * Avp_fsm.Translate.result
(** Parse, elaborate and translate Verilog source text: the parsed
    design (what mutation operators rewrite) and its translation. *)

val translation : ?top:string -> string -> Avp_fsm.Translate.result

val model : ?top:string -> string -> Avp_fsm.Model.t

val tours :
  ?all_conditions:bool ->
  ?instr_limit:int ->
  Avp_fsm.Model.t ->
  Avp_enum.State_graph.t * Avp_tour.Tour_gen.t
(** Enumerate the state graph from reset and generate its transition
    tours. *)

val guard : string -> (unit -> 'a) -> ('a, string) result
(** [guard file f] runs [f] and turns bad input into the message avp
    prints for it: a lexical, parse, elaboration, translation or [.sml]
    error, a combinational loop that never settles, too many reachable
    states, or a file that cannot be read or written.  Messages name
    [file], with the line and column where the error has them; a
    built-in design is named ["avp"].  Other exceptions pass
    through. *)
