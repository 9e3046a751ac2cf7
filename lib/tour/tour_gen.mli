(** Transition-tour test generation (step 3 of the paper's
    methodology), following the pseudo-code of Figure 3.3.

    A greedy depth-first traversal emits a vector for every edge
    traversed.  When the current state has no untraversed out-edge, an
    {e explore phase} appends a shortest path to the nearest state that
    still has one (re-traversing edges is cheap in simulation;
    backtracking is not).  When nothing is reachable, the trace is
    closed and a new one starts from reset.  An optional per-trace
    instruction limit closes traces early so that reaching any bug
    needs at most one bounded re-simulation (the paper's Table 3.3 uses
    10,000 instructions).

    The explore phase does not search.  The generator keeps every
    state's distance to the nearest state with an untraversed
    out-edge, and updates it when a state's last untraversed out-edge
    is taken.  Exploring is then a walk down those distances that
    takes, at each state, the first arc by position that leads one
    level down.  The walk is the lexicographically first shortest path
    by arc position: the path a breadth-first search scanning each
    state's arcs in order would return. *)

type step = {
  src : int;
  dst : int;
  choice : int;  (** flat choice index — the edge's condition *)
  fresh : bool;  (** first traversal of this arc anywhere in the set *)
}

type trace = step array
(** Starts at the reset state. *)

type stats = {
  num_traces : int;
  edge_traversals : int;  (** total steps across all traces *)
  instructions : int;     (** per the [instructions_of_edge] weight *)
  longest_trace_edges : int;
  longest_trace_instructions : int;
  traces_hitting_limit : int;
  gen_time_s : float;
}

type t = { traces : trace array; stats : stats }

val generate :
  ?instr_limit:int ->
  ?instructions_of_edge:(src:int -> choice:int -> int) ->
  Avp_enum.State_graph.t ->
  t
(** [instr_limit] is the paper's "MAX instructions per file";
    [instructions_of_edge] weighs each edge (default 1) — in a
    processor model, stall-cycle edges issue no instruction while
    dual-issue edges issue two.

    [instructions_of_edge] must be a function of [(src, choice)]: it
    is called once per arc, when the tour first traverses it, and the
    answer is reused on every later traversal.  A tour covers every
    arc of a graph enumerated from reset, so the calls number
    {!Avp_enum.State_graph.num_edges}. *)

val walk : Avp_fsm.Model.t -> Avp_enum.State_graph.t -> int array -> trace
(** The model's walk from reset under a sequence of flat choice
    indices, one step per choice.  Successor states are computed by
    the model, so they always exist in the fully-enumerated graph. *)

val of_traces : trace array -> t
(** A tour set of unweighted traces: one instruction per edge, no
    instruction limit, no generation time. *)

val covers_all_edges : Avp_enum.State_graph.t -> t -> bool
(** Union of all traces covers every arc of the state graph. *)

val is_valid : Avp_enum.State_graph.t -> t -> bool
(** Every trace starts at reset and follows real graph edges. *)

val pp_stats : Format.formatter -> stats -> unit
val report_section : stats -> Avp_obs.Report.tour_section
