(** MIPS R4000PC/SC rev 2.2/3.0 errata database and bug-class
    classifier (Table 1.1).

    The paper classifies the 46 published errata "according to the
    parts of the design that interacted to cause the error".  The
    original errata sheet is no longer distributed, so the per-entry
    descriptions here are synthesized from the classes and themes the
    paper and contemporary sources describe (the class counts match
    Table 1.1 exactly: 3 pipeline/datapath, 17 single control, 26
    multiple event); the famous jump-after-load-miss TLB bug from the
    paper's introduction is entry 22. *)

type bug_class =
  | Pipeline_datapath  (** pipeline/datapath ONLY bugs *)
  | Single_control  (** single control logic bugs *)
  | Multiple_event  (** interactions between units in corner cases *)

type entry = {
  id : int;
  cls : bug_class;
  units : string list;  (** design units involved *)
  description : string;
}

val all : entry list
val count : bug_class -> int
val total : unit -> int

val classify : entry -> bug_class
(** Recomputes the class from the number of interacting units and
    whether control logic is involved; agrees with [cls] on the whole
    database (checked by tests). *)

val percentage : bug_class -> float

type row = { label : string; bugs : int; percent : float }

val table : unit -> row list
(** The rows of Table 1.1, including the total row. *)
