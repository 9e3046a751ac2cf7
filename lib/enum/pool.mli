(** A fixed fork-join pool of OCaml 5 domains for level-synchronous
    parallel work (plain [Domain]/[Mutex]/[Condition], no
    dependencies).

    [run] hands every domain — the calling one included — the same job
    with a distinct slot number and waits for all of them: a barrier.
    Workers park on a condition variable between rounds, so a pool can
    drive many short rounds (one per BFS level) without re-spawning
    domains. *)

type t

val with_pool : domains:int -> (t -> 'a) -> 'a
(** Spawn [domains - 1] worker domains ([domains] is clamped to at
    least 1; a 1-domain pool runs jobs inline), run the callback, and
    join the workers, robust to exceptions. *)

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job slot] for every slot in
    [0 .. domains - 1], slot 0 on the calling domain, and returns when
    all have finished.  If any slot raises, the first exception is
    re-raised here after the barrier. *)

val iter : domains:int -> int -> (int -> unit) -> unit
(** [iter ~domains n job] runs [job i] for every [i] in [0 .. n - 1],
    sharded round-robin: domain [d] takes [d], [d + domains], ...
    It runs sequentially, in index order, on the calling domain when
    one domain suffices ([domains <= 1] or [n <= 1]).  Exceptions
    propagate as in {!run}. *)
