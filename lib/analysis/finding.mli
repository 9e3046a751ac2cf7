(** Analysis findings: one value type shared by every pass, with a
    deterministic total order and text/JSON renderers. *)

open Avp_hdl

type severity = Warning | Error

type t = {
  severity : severity;
  rule : string;
  net : string option;  (** net or FSM variable name *)
  net_id : int;  (** elaborated net id, or -1 when not net-anchored *)
  loc : Ast.loc option;
  message : string;
  path : string list;  (** taint / cycle path, source first *)
}

val make :
  ?net_id:int ->
  ?net:string ->
  ?loc:Ast.loc ->
  ?path:string list ->
  severity ->
  string ->
  string ->
  t
(** [make severity rule message]. *)

val severity_string : severity -> string

val compare : t -> t -> int
(** Total order by (severity, rule, net id, net name, position,
    message) — byte-stable across runs, so golden tests and [--json]
    output never depend on pass or hash-table iteration order. *)

val sort : t list -> t list

val pp : ?file:string -> Format.formatter -> t -> unit
(** [file:LINE: severity: [rule] net message (path: a -> b)]. *)

val json_escape : string -> string

val to_json : ?file:string -> t list -> string
(** An object with a ["findings"] array plus ["errors"]/["warnings"]
    counts — the machine-checkable format the CI lint gate consumes. *)
