(** Fork-join over OCaml 5 domains (plain [Domain], no dependencies)
    for the work that shards by index: mutants, fuzz candidates, replay
    traces and validation stimuli.  State enumeration runs on one
    domain and does not use it. *)

val default_domains : unit -> int
(** The [AVP_DOMAINS] environment variable when set to a positive
    integer, else [Domain.recommended_domain_count ()]. *)

val iter : domains:int -> int -> (int -> unit) -> unit
(** [iter ~domains n job] runs [job i] for every [i] in [0 .. n - 1],
    sharded round-robin: slot [d] takes [d], [d + domains], ...  Each
    call spawns [domains - 1] domains (never more than [n - 1]), runs
    slot 0 on the calling domain and joins every spawned domain before
    it returns.  It runs sequentially, in index order, on the calling
    domain when one domain suffices ([domains <= 1] or [n <= 1]).  If a
    job raises, its slot stops; the exception is re-raised once every
    domain has been joined (slot 0's first, then the lowest slot's).
    If a spawn raises, no further domain is spawned and slot 0 does not
    run; its exception is re-raised once the domains already spawned
    have been joined. *)
