(** Replay generated vectors against the HDL design, checking that
    the hardware takes exactly the transitions the tour predicts —
    the closed-loop form of step 4 for translated designs, where the
    simulator's state nets can be compared against the enumerated
    graph cycle by cycle. *)

type stats = {
  traces : int;
  cycles : int;  (** total cycles replayed *)
}

type mismatch = {
  trace : int;
  cycle : int;
  net : string;
  actual : int;
  predicted : int;
}

val pp_mismatch : Format.formatter -> mismatch -> unit

val cycles_until : Vector.t array -> mismatch -> int
(** Vector budget consumed up to and including the detecting cycle:
    the full length of every trace before [m.trace] plus
    [m.cycle + 1] (a post-reset detection at cycle [-1] costs no
    vectors) — the "vectors-to-kill" cost of a detection. *)

val vectors :
  Avp_fsm.Translate.result -> Avp_tour.Tour_gen.t -> Vector.t array
(** The force/release vectors of every trace, precomputed once — the
    mutation campaign realizes the tour (and its random baseline) a
    single time and replays the same vectors against hundreds of
    mutants. *)

val state_nets : Avp_fsm.Translate.result -> string array
(** Names of the annotated state nets, in state-binding order. *)

val predicted_state : Avp_tour.Tour_gen.trace -> int -> int
(** [predicted_state trace cycle]: the graph state a trace predicts
    after [cycle] — its first step's source at reset release (cycle
    [-1]), else step [cycle]'s destination.  Every state oracle
    ({!check}, {!check_lanes} and the mutation campaign's) reads its
    predictions here. *)

val check :
  ?dut:Avp_hdl.Elab.t ->
  ?progress:Avp_obs.Progress.t ->
  ?vectors:Vector.t array ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  Avp_tour.Tour_gen.t ->
  (stats, mismatch) result
(** Builds a fresh reference interpreter ({!Avp_hdl.Sim}) per trace,
    applies the force/release vectors, and compares every annotated
    state net against the tour's predicted valuation — at reset
    release (reported as cycle [-1]) and after each clock edge.  Returns the lowest-numbered trace's
    first mismatch, if any.  Every trace is replayed even after a
    mismatch, so an exception from a later trace (a state net at x/z
    raises [Avp_fsm.Translate.Unsupported]) takes precedence.

    [?vectors] (default: computed by {!vectors}) supplies the
    realized per-trace vectors, which must be positionally parallel
    to [tours]'s traces.

    [?dut] substitutes a different elaborated design as the device
    under test (it must declare the same annotated nets): vectors
    generated from the specification's model then validate a modified
    implementation — the step-4 comparison at the HDL level.  Any
    divergence from the predicted state sequence is a caught bug. *)

val check_lanes :
  dut:Avp_hdl.Elab.t ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  Avp_tour.Tour_gen.t ->
  Vector.t array ->
  (stats, int * string) result option
(** {!check} on the bit-sliced kernel: [check_lanes ~dut tr graph tours
    vectors] replays every trace of [tours] (with its realized
    [vectors]) against [dut] as one-lane slots ({!Slots}) of one kernel
    of up to {!Avp_logic.Bv_sliced.lanes_limit} (62) lanes, each lane
    checking the annotated state nets against its own trace's
    predictions at reset release and after every clock edge.  A lane
    that leaves its trace stops, and its slot takes the next trace.

    [Error (t, detail)] names the lowest-numbered trace that diverged
    and where, in {!check}'s terms: the first mismatching net
    ({!pp_mismatch}) or the message of a state net that carried x/z
    bits.  [None] when {!Avp_hdl.Sliced.create} rejects [dut] or a
    kernel step raised; {!check} stays the oracle for those, and for
    the mismatch record and exceptions of a failing replay. *)

val record :
  Avp_fsm.Translate.result ->
  nets:string array ->
  Vector.t array array ->
  int array array array array
(** [record tr ~nets sets] plays every trace of every vector set
    against the pristine design once and records the value of every
    named net: in trace [t]'s rows of a set, row 0 holds the
    post-reset values and row [i + 1] the values after cycle [i] — the
    golden trajectories a lockstep comparison checks against.  One
    result per set, in order.

    All the sets' traces run in one pass on the bit-sliced kernel, one
    trace per one-lane slot ({!Slots}), 62 at a time.  The scalar
    recording, one {!Avp_hdl.Sim} run per trace, stays the fallback and
    the oracle in three cases:
    - a design {!Avp_hdl.Sliced.create} rejects: every trace;
    - a trace whose lane reads a net that cannot encode an int: that
      trace, in trace order, so the message raised is the scalar's;
    - a kernel step that raises: every trace.
    @raise Avp_fsm.Translate.Unsupported if a recorded net carries
    x/z bits. *)

val check_nets :
  dut:Avp_hdl.Elab.t ->
  ?progress:Avp_obs.Progress.t ->
  Avp_fsm.Translate.result ->
  nets:string array ->
  predicted:int array array array ->
  Vector.t array ->
  (stats, mismatch) result
(** Lockstep comparison of [dut] against per-trace trajectories in
    {!record}'s layout (one [int array array] per vector trace):
    the named nets are compared at reset release and after every
    cycle.  Same order and result as {!check}.  The
    mutation campaign uses this with the design's output ports as
    [nets] — the observability a golden-model random baseline has,
    in contrast to the tour's per-cycle state predictions. *)

val dump_vcd :
  ?dut:Avp_hdl.Elab.t ->
  ?nets:string list ->
  Avp_fsm.Translate.result ->
  Vector.t ->
  string
(** Replay one trace's vectors with a {!Avp_hdl.Vcd} dump attached
    and return the VCD file contents.  [nets] defaults to the clock,
    reset, annotated state nets, and every net the vectors force or
    release; force/release commands appear as [$comment] annotations
    at the cycle where they took effect. *)
