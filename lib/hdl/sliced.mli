(** Bit-sliced batched simulation backend.

    Runs up to {!Avp_logic.Bv_sliced.lanes_limit} (62) independent
    simulations of one design word-parallel through a single compiled
    kernel: every net keeps one machine word per bit, and bit L of
    that word belongs to lane L.  Lane [l] of a batched run is
    bit-identical to a scalar run of the same stimulus — the
    reference interpreter ({!Sim}) remains the differential oracle.

    {b Mutant schemata}: {!create_schemata} compiles the pristine
    design ONCE with per-lane mutation selects (a lane-masked mux
    between the original expression and the mutated one), so a
    mutation campaign over N single-site mutants costs ceil(N/62)
    word-parallel replays instead of N sequential ones.

    Control flow is predicated — an [if] executes both branches, each
    under the mask of the lanes that took it — so a step costs
    roughly the union of all lanes' work.  Forcing, releasing, poking
    and divergence checks all take per-lane masks. *)

open Avp_logic

type t

val create : lanes:int -> Elab.t -> t option
(** A batched simulator with [lanes] identical copies of the design
    (1..62).  [None] when the design uses a construct the kernel does
    not cover (currently: ternaries with unequal arm widths, whose
    per-lane result widths would diverge); callers fall back to the
    reference interpreter ({!Sim}). *)

val create_schemata :
  ?u:Compile.units -> base:Elab.t -> Elab.t array -> (t * bool array) option
(** [create_schemata ~base mutants] compiles [base] with lane [i]
    carrying [mutants.(i)] (1..62 mutants).  The boolean array flags
    which mutants could be scheduled into the schemata: unscheduled
    lanes (structural divergence beyond a single expression site)
    simulate the pristine base and must be handled by the scalar
    fallback.  Lanes given the same (physically equal) elaboration
    share one merge, so a chunk of mutants repeated across the lanes
    costs the chunk's selects once.  A lane given [base] itself, or an
    elaboration identical to it, simulates the pristine design: the
    golden lane a campaign's slot carries next to its mutants.  [None]
    when the base itself is not supported. *)

val reinit : ?mask:int -> t -> unit
(** Reset every lane to power-on state (regs all-X, wires all-Z,
    nothing forced, nothing frozen, time 0) so one kernel serves many
    trace batches without recompiling.  With [?mask], call between two
    steps: only the masked lanes return to power-on, losing their
    forces and freeze bits, while the other lanes keep running; every
    unit runs at the next settle, which for the other lanes is the
    fixpoint they already hold.  The vector slots
    ({!Avp_vectors.Slots}) start each trace this way. *)

val freeze : t -> mask:int -> unit
(** Retire the masked lanes until they are re-initialised ({!reinit}):
    every write path (commits, NBA flushes, pokes, forces) masks them
    out, so their nets stop changing and their downstream units drop
    out of the settle worklist.  A campaign freezes a lane once its
    verdict for the current trace is in, collapsing the word pass's
    cost to the union of the still-live lanes' activity.  Frozen lanes
    hold stale values — do not read them back. *)

val frozen : t -> int
(** The mask of frozen lanes. *)

val lanes : t -> int

val amask : t -> int
(** Active-lane mask, [(1 lsl lanes) - 1]. *)

val settle : t -> unit
(** @raise Compile.Comb_loop when no fixpoint is reached. *)

val step : t -> Elab.uid -> unit
(** Settle, fire sequential blocks on the clock's rising edge, commit
    nonblocking updates, advance time, settle again — all lanes in
    lockstep.  Once the nonblocking-write queue
    has grown to the design's largest step, a step allocates nothing,
    except to resolve a net with several drivers. *)

(** {1 Per-lane access} — [?mask] defaults to all active lanes *)

val poke_id : ?mask:int -> t -> Elab.uid -> Bv.t -> unit
(** Write the value into the masked lanes without settling; forced
    lanes are skipped, like the scalar [poke]. *)

val force_id : ?mask:int -> t -> Elab.uid -> Bv.t -> unit
(** Pin the masked lanes to the value.  Does NOT settle: comb
    settling is confluent, so batched stimulus (hundreds of per-lane
    forces per cycle) defers the fixpoint to the next {!settle} or
    {!step} instead of paying one settle per call.  Call {!settle}
    before reading combinational nets. *)

val force_slots :
  t -> Elab.uid -> width:int -> mask:int -> int array -> int array -> unit
(** [force_slots t id ~width ~mask v u] pins the masked lanes of every
    slot [s] — lanes [s * width] to [s * width + width - 1] — to the
    packed value whose value and unknown planes
    ({!Avp_logic.Bv.planes}) are [v.(s)] and [u.(s)], zero-extended or
    truncated to the net's width.  One transposed pass per net that
    allocates nothing, the slotted form of {!force_id}: frozen lanes
    are skipped, it does not settle, and the net's readers are marked
    only when a bit changed. *)

val release_id : ?mask:int -> t -> Elab.uid -> unit
(** Unpin the masked lanes and re-enqueue the net's driver.  Does NOT
    settle, like {!force_id}. *)

val get_lane : t -> lane:int -> Elab.uid -> Bv.t
(** One lane's value of a net as a scalar vector. *)

val poke_int : t -> Elab.uid -> int -> unit
(** [poke_int t id v] writes the defined value [v] (non-negative,
    truncated to the net's width) into every active lane: {!poke_id} of
    [Bv.of_int v] without allocating.  Like {!poke_id}: no settle,
    forced and frozen lanes are skipped, and the net's readers are
    marked only when a bit changed. *)

val poke_words : t -> Elab.uid -> int array -> int -> unit
(** [poke_words t id words off] writes into every active lane a
    defined value per lane: bit [j] of the net is set in the lanes set
    in [words.(off + j)], for each bit [j] below the net's width.
    Stimulus transposed once and poked many times, as the translated
    model's blocks of choices; otherwise as {!poke_int}. *)

val get_ints : t -> Elab.uid -> int array -> int
(** [get_ints t id dst] writes lane [l]'s value of the net into
    [dst.(l)] for every active lane and returns the mask of the lanes
    whose value cannot encode an int (an undefined bit, or a net wider
    than {!Avp_logic.Bv.packed_width_limit}, as {!check_net}); their
    [dst] entries are unspecified. *)

val rerun_unit : t -> int -> unit
(** [rerun_unit t u] makes evaluation unit [u] ({!Compile.units}) run
    at the next settle in every live lane, as if one of its inputs had
    changed. *)

val check_net : t -> Elab.uid -> mask:int -> predicted:int -> int
(** The lanes of [mask] that diverge from a broadcast predicted value:
    those whose value cannot encode a state (an undefined bit, or a net
    wider than the packed limit — matching the scalar checker's
    failure) and those whose defined value differs from [predicted].
    It allocates nothing; a caller reads a flagged lane ({!get_lane})
    to tell the two apart. *)

val check_lane : t -> Elab.uid -> mask:int -> lane:int -> int
(** {!check_net} with the value lane [lane] holds as the prediction,
    read from the net's words without building a vector: a slot's
    lanes against its golden lane, the pristine design riding in the
    same word.  The comparison means something only while lane [lane]
    itself can encode an int; include it in [mask] to learn whether it
    can (a defined lane equals itself, so it is flagged only when it
    cannot). *)
