(** Transition-tour test generation (step 3 of the paper's
    methodology), following the pseudo-code of Figure 3.3.

    A greedy depth-first traversal emits a vector for every edge
    traversed; when no untraversed edge is reachable by DFS, a
    breadth-first {e explore phase} finds the nearest state with an
    untraversed out-edge and the shortest path there is appended
    (re-traversing edges is cheap in simulation; backtracking is not).
    When nothing is reachable, the trace is closed and a new one
    starts from reset.  An optional per-trace instruction limit closes
    traces early so that reaching any bug needs at most one bounded
    re-simulation (the paper's Table 3.3 uses 10,000 instructions). *)

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
    dual-issue edges issue two. *)

val walk : Avp_fsm.Model.t -> Avp_enum.State_graph.t -> int array -> trace
(** The model's walk from reset under a sequence of flat choice
    indices, one step per choice.  Successor states are computed by
    the model, so they always exist in the fully-enumerated graph.
    The model's [next] may drive a shared reference simulator: walk
    on the calling domain only. *)

val of_traces : trace array -> t
(** A tour set of unweighted traces: one instruction per edge, no
    instruction limit, no generation time. *)

val covers_all_edges : Avp_enum.State_graph.t -> t -> bool
(** Union of all traces covers every arc of the state graph. *)

val is_valid : Avp_enum.State_graph.t -> t -> bool
(** Every trace starts at reset and follows real graph edges. *)

val pp_stats : Format.formatter -> stats -> unit
