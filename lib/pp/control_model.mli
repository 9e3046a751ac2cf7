(** Abstract FSM model of the Protocol Processor control logic
    (Figure 3.2), the input to state enumeration and tour generation.

    Interacting FSMs — I-cache refill, D-cache refill, fill/spill,
    cache-conflict, split-store and the stall machine — surrounded by
    abstract models of the datapath and of the other MAGIC units:

    - the abstract PC and D-cache reduce addresses to hit/miss bits
      and a dirty-victim bit;
    - the abstract decoded-instruction registers carry only the five
      instruction classes of Table 3.1 (plus bubble);
    - the abstract Inbox, Outbox and memory controller
      nondeterministically choose their ready/progress signals every
      cycle, so "all possible choices of actions are permuted for each
      state".

    The same transition function also reports how many instructions
    issue on an edge, which weighs tours for Table 3.3 (stall-cycle
    edges generate no instruction). *)

type cfg = {
  with_spill : bool;  (** model the fill-before-spill buffer *)
  with_conflict : bool;  (** model the split-store conflict FSM *)
  with_interfaces : bool;  (** model switch/send external stalls *)
  with_mem_nondet : bool;
      (** abstract memory controller chooses per-cycle progress *)
  pipe_window : int;  (** abstract pipeline registers, 1 or 2 *)
  fill_counters : int;
      (** extra burst-progress counter states on each refill FSM; 0
          gives the coarse 4-state FSMs, larger values grow the state
          space toward the paper's scale *)
  dual_issue : bool;  (** model a second issue slot *)
  io_credits : int;
      (** when positive, the abstract Inbox/Outbox are occupancy
          counters of this depth instead of stateless ready bits *)
  with_branches : bool;
      (** model squashing branches — the paper's stated next stage:
          adds a BR instruction class and an abstract branch-outcome
          block whose taken choice squashes the younger pipeline
          window and redirects fetch.  Coverage mapping
          ({!valuation_of_obs}) does not support this extension. *)
  with_fetch_gaps : bool;
      (** let the abstract I-side supply nothing in a cycle: the RTL's
          decoupled fetch queue can lag issue even without an I-stall,
          and coverage mapping needs those bubble-follower states *)
}

val tiny : cfg
(** Memory system only: small enough for unit tests. *)

val default : cfg
(** Full Figure 3.2 feature set with coarse FSMs. *)

val medium : cfg
(** Tour-study size: refill counters, dual issue and I/O credits grow
    the graph to ~10^5 arcs, where the paper's 10,000-instruction
    trace limit visibly bites, while tours still generate in
    seconds. *)

val large : cfg
(** Adds burst counters and the dual-issue slot to push the state
    count toward the paper's regime. *)

val model : cfg -> Avp_fsm.Model.t

val instructions_of_edge :
  cfg -> src:int array -> choice:int array -> int
(** Instructions issued when taking the edge (0 on stall cycles, 2 on
    dual-issue cycles).  Tours weigh every arc of a graph with it, so a
    call allocates nothing: it keeps the layout of the last [cfg] it
    was given (compared physically) and a scratch successor, and reads
    [choice] through one static reader.  Not for two domains at
    once. *)

val valuation_of_obs : cfg -> Rtl.control_obs -> int array
(** Map an RTL control observation onto the abstract state space, for
    coverage measurement.  Counter-refined states ([fill_counters] >
    0) are projected onto their coarse class. *)
