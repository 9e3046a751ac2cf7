(** Value Change Dump (IEEE 1364 §18) writer for simulation traces.

    Records selected nets each cycle and serializes the standard VCD
    format, viewable in GTKWave and friends.  Four-valued logic maps
    directly ([0 1 x z]). *)

type t

val create : Sim.t -> nets:string list -> t
(** @raise Not_found if a net name does not exist. *)

val sample : t -> unit
(** Record current values at the current simulation time (call once
    per clock cycle, after {!Sim.step}). *)

val serialize : ?timescale:string -> ?top:string -> t -> string
(** The complete VCD file contents. *)

val attach : Sim.t -> nets:string list -> t
(** Install a {!Sim.observer} that samples after every clock edge and
    records [force]/[release] commands as [$comment] annotations, so
    replayed test vectors dump without the driver calling {!sample}.
    Records time-zero values immediately.  Replaces any observer
    already installed on the simulator. *)

val detach : t -> unit
(** Remove the observer installed by {!attach}; the accumulated dump
    remains serializable. *)

