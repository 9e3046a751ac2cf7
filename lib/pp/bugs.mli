(** The six Protocol Processor bugs of Table 2.1, as injectable
    faults.

    Each bug fires only when its corner-case conjunction of
    microarchitectural events occurs in the RTL model — the "multiple
    event" class that hand-written and random tests miss.  The
    descriptions follow the paper's synopses. *)

type id = Bug1 | Bug2 | Bug3 | Bug4 | Bug5 | Bug6

type t = {
  bug1 : bool;
  bug2 : bool;
  bug3 : bool;
  bug4 : bool;
  bug5 : bool;
  bug6 : bool;
}

val none : t
val only : id -> t
val enabled : t -> id -> bool
val all_ids : id list
val number : id -> int
val summary : id -> string
val trigger : id -> string
(** Informal statement of the event conjunction that fires the bug. *)

val pp_id : Format.formatter -> id -> unit
