type id = Bug1 | Bug2 | Bug3 | Bug4 | Bug5 | Bug6

type t = {
  bug1 : bool;
  bug2 : bool;
  bug3 : bool;
  bug4 : bool;
  bug5 : bool;
  bug6 : bool;
}

let none =
  { bug1 = false; bug2 = false; bug3 = false; bug4 = false; bug5 = false;
    bug6 = false }

let only = function
  | Bug1 -> { none with bug1 = true }
  | Bug2 -> { none with bug2 = true }
  | Bug3 -> { none with bug3 = true }
  | Bug4 -> { none with bug4 = true }
  | Bug5 -> { none with bug5 = true }
  | Bug6 -> { none with bug6 = true }

let enabled t = function
  | Bug1 -> t.bug1
  | Bug2 -> t.bug2
  | Bug3 -> t.bug3
  | Bug4 -> t.bug4
  | Bug5 -> t.bug5
  | Bug6 -> t.bug6

let all_ids = [ Bug1; Bug2; Bug3; Bug4; Bug5; Bug6 ]

let number = function
  | Bug1 -> 1 | Bug2 -> 2 | Bug3 -> 3 | Bug4 -> 4 | Bug5 -> 5 | Bug6 -> 6

let summary = function
  | Bug1 ->
    "Interface miscommunication between PP's cache controller and the \
     Memory Controller."
  | Bug2 -> "Latch not qualified on all stall conditions and lost data."
  | Bug3 ->
    "Cache conflict stall can cause wrong address to be used on the \
     stalled load."
  | Bug4 ->
    "I-Stall fix-up cycle lost if I-Stall condition occurs during Mem-Stall."
  | Bug5 ->
    "Glitch on bus valid signal allows Z values to be latched on a load \
     that missed followed by any other load/store instruction interrupted \
     by an external stall condition."
  | Bug6 ->
    "Cache conflict stall with D-Cache hit and simultaneous I-stall \
     results in stale data being loaded."

let trigger = function
  | Bug1 -> "I-cache refill and D-cache refill in flight simultaneously"
  | Bug2 -> "D-cache refill completes while an I-stall is pending"
  | Bug3 -> "conflict-stalled load with a load/store next in the pipeline"
  | Bug4 -> "I-miss arises while an external (Inbox/Outbox) stall is held"
  | Bug5 ->
    "critical-word restart with a load/store in the pipe and an external \
     stall inside the rewrite window"
  | Bug6 -> "conflict stall on a same-line load with a simultaneous I-stall"

let pp_id ppf id = Format.fprintf ppf "Bug #%d" (number id)
