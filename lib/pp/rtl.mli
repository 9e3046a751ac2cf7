(** Cycle-accurate RTL-level model of the Protocol Processor.

    Implements the microarchitecture the paper describes (Section 2):

    - instruction cache with a refill FSM (I-stalls freeze fetch, and
      a fix-up cycle restores the instruction registers afterwards);
    - two-way set-associative data cache with a "fill-before-spill"
      refill strategy (a dirty victim is parked in a spill buffer so
      the fill can proceed first) and "critical-word-first" restart
      (the stalled processor resumes as soon as the missed word
      arrives, while the rest of the line streams in);
    - split stores (tag probe in one cycle, data write in a later
      one), with loads to other lines completing ahead of the pending
      store and a "conflict stall" when a load hits the same line or a
      second store arrives;
    - [send]/[switch] interface instructions that stall the pipeline
      while the Outbox/Inbox is not ready;
    - a single memory-controller port shared by I-refill, D-refill and
      spill write-back — the mutual interlock the paper credits for
      keeping the control state space manageable.

    The per-cycle Inbox/Outbox readiness inputs are the "external
    stall" stimuli that generated test vectors force.  Architectural
    effects are logged in the same form as {!Spec} for comparison.
    The six bugs of Table 2.1 can be injected via {!config.bugs}. *)

type config = {
  dcache_sets : int;
  dcache_ways : int;
  line_words : int;
  icache_lines : int;  (** direct-mapped *)
  mem_latency : int;  (** request to critical word, cycles *)
  fetch_buffer : int;  (** decoupled fetch queue depth, >= 2 *)
  bugs : Bugs.t;
  perf_redrive : bool;
      (** the Bug #5 backstory as a pure performance bug: the refill
          drives the critical word a second time (older restart
          policy), costing a cycle but never corrupting data — hence
          invisible to result comparison (Section 4's caveat) *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?mem_init:(int * int) list ->
  program:Isa.t array ->
  inbox:int list ->
  unit ->
  t

val step : t -> inbox_ready:bool -> outbox_ready:bool -> unit
(** One clock cycle with the given interface readiness. *)

val run :
  ?max_cycles:int ->
  ?ready:(int -> bool * bool) ->
  t ->
  unit
(** Steps until [Halt] retires or [max_cycles] elapses; [ready] maps a
    cycle number to (inbox_ready, outbox_ready), default always
    ready. *)

val cycle : t -> int
val halted : t -> bool
val reg : t -> Isa.reg -> int
val effects : t -> Spec.effect_ list
(** Register writes in program order, interleaved with memory writes
    and sends (each stream individually in program order; split stores
    may legitimately drain after a later load's register write). *)

val instructions_retired : t -> int

(** {1 Control-state observation}

    Snapshot of the control FSMs of Figure 3.2, used for coverage
    measurement and for checking the abstract model against the
    implementation. *)

type control_obs = {
  o_ifsm : int;  (** 0 idle, 1 waiting for port, 2 filling, 3 fixup *)
  o_dfsm : int;  (** 0 idle, 1 waiting, 2 blocking fill, 3 background fill *)
  o_spill : int;  (** 0 empty, 1 holding victim, 2 writing back *)
  o_store : int;  (** 0 empty, 1 pending split store *)
  o_conflict : bool;  (** conflict stall this cycle *)
  o_ext : bool;  (** external (Inbox/Outbox) stall this cycle *)
  o_istall : bool;
  o_dstall : bool;
  o_advance : bool;  (** an instruction issued this cycle *)
  o_head : int;
      (** class of the instruction at the issue point: 0 bubble,
          1 ALU, 2 LD, 3 SD, 4 SWITCH, 5 SEND *)
  o_follow : int;  (** class of the following instruction, same coding *)
}

val observe : t -> control_obs

(** {1 Waveform probes}

    Per-cycle samples of the Bug #5 signals for rendering the timing
    diagrams of Figures 2.2/2.3. *)

type probe = {
  p_cycle : int;
  p_membus : int option;  (** [None] when the bus floats (Z) *)
  p_membus_valid : bool;
  p_glitch : bool;
  p_external_stall : bool;
  p_dstall : bool;
}

val set_tracing : t -> bool -> unit
val probes : t -> probe list
(** Oldest first. *)
