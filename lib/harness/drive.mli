(** Stimulus realization: from a transition tour over the abstract
    control model to concrete RTL stimulus.

    "When the transition tour is traversed to generate the test, a
    random instruction from the class is chosen along with random
    data."  The abstract choices on each edge are realized as:

    - the instruction class becomes a biased-random instruction;
    - the [d_hit]/[dirty_victim]/[same_line] bits steer load/store
      addresses using a shadow copy of the D-cache (so a miss choice
      picks an uncached line, a dirty choice picks a set whose victim
      is dirty, a same-line choice reuses the last store's line);
    - the Inbox/Outbox choices become the per-cycle ready schedule,
      repeated cyclically for the whole run.

    The realization is open-loop: RTL timing differs from the abstract
    edge sequence, so coverage is measured on the RTL side
    ({!Coverage}). *)

type stimulus = {
  program : Avp_pp.Isa.t array;  (** ends with [Halt] *)
  ready : int -> bool * bool;
  inbox : int list;
  mem_init : (int * int) list;
  source_edges : int;  (** trace length the stimulus came from *)
}

val of_traces :
  ?seed:int ->
  ?seeds_per_trace:int ->
  Avp_pp.Control_model.cfg ->
  Avp_enum.State_graph.t ->
  Avp_tour.Tour_gen.t ->
  stimulus list
(** One stimulus per tour trace; [seeds_per_trace] > 1 realizes each
    trace several times with different random fills (more chances for
    the open-loop realization to line the conjunction up with RTL
    timing). *)
