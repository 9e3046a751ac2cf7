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
(** The force/release vectors of every trace, precomputed once.  The
    result is immutable and may be shared read-only across domains —
    the mutation campaign realizes the tour (and its random baseline)
    a single time and replays the same vectors against hundreds of
    mutants. *)

val state_nets : Avp_fsm.Translate.result -> string array
(** Names of the annotated state nets, in state-binding order. *)

val check :
  ?dut:Avp_hdl.Elab.t ->
  ?domains:int ->
  ?progress:Avp_obs.Progress.t ->
  ?vectors:Vector.t array ->
  Avp_fsm.Translate.result ->
  Avp_enum.State_graph.t ->
  Avp_tour.Tour_gen.t ->
  (stats, mismatch) result
(** Builds a fresh simulator per trace, applies the force/release
    vectors, and compares every annotated state net against the tour's
    predicted valuation — at reset release (reported as cycle [-1])
    and after each clock edge.  Returns the first mismatch, if any.

    [?vectors] (default: computed by {!vectors}) supplies the
    realized per-trace vectors, which must be positionally parallel
    to [tours]'s traces.

    [?domains] (default 1) replays traces on that many OCaml domains,
    one simulator per domain, traces sharded round-robin.  The result
    is deterministic and identical to the sequential run: vector
    generation stays on the calling domain, and the merge reports the
    lowest-numbered failing trace.  The replay stays sequential unless
    every requested domain would get at least 4096 cycles of work —
    small replays lose more to domain spawn and cache contention than
    they gain.

    [?dut] substitutes a different elaborated design as the device
    under test (it must declare the same annotated nets): vectors
    generated from the specification's model then validate a modified
    implementation — the step-4 comparison at the HDL level.  Any
    divergence from the predicted state sequence is a caught bug. *)

val record :
  Avp_fsm.Translate.result ->
  nets:string array ->
  Vector.t array ->
  int array array array
(** Plays each trace's vectors against the pristine design once and
    records the value of every named net: in trace [t]'s rows, row 0
    holds the post-reset values and row [i + 1] the values after
    cycle [i] — the golden trajectories a lockstep comparison checks
    against.  The design is compiled once for the whole set.
    @raise Avp_fsm.Translate.Unsupported if a recorded net carries
    x/z bits. *)

val check_nets :
  dut:Avp_hdl.Elab.t ->
  ?domains:int ->
  ?progress:Avp_obs.Progress.t ->
  Avp_fsm.Translate.result ->
  nets:string array ->
  predicted:int array array array ->
  Vector.t array ->
  (stats, mismatch) result
(** Lockstep comparison of [dut] against per-trace trajectories in
    {!record}'s layout (one [int array array] per vector trace):
    the named nets are compared at reset release and after every
    cycle.  Same sharding, determinism and merge as {!check}.  The
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
