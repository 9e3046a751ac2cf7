(** Product-machine comparison of an implementation FSM against a
    specification FSM.

    Section 4 observes that enumerating only the implementation can
    miss bugs where the implementation has {e fewer} behaviours, and
    proposes "performing the state enumeration on both the
    implementation FSM and an abstract model of the specification
    FSM".  This module does exactly that: both models step in
    lockstep under the same choice valuations, every reachable product
    state is visited, and the first state whose observations differ is
    returned with a witness input sequence.

    Both models must expose the same choice variables (checked by
    name and cardinality). *)

type divergence = {
  impl_state : int array;
  spec_state : int array;
  witness : int array list;
      (** choice valuations leading from reset to the divergence *)
}

exception Choice_mismatch of string

val compare :
  impl:Model.t ->
  spec:Model.t ->
  impl_obs:(int array -> int) ->
  spec_obs:(int array -> int) ->
  unit ->
  divergence option
(** [None] when every reachable product state agrees — the
    implementation conforms to the specification on all observable
    behaviour, including transitions a first-condition tour would
    never exercise.

    @raise Choice_mismatch when the models' choice variables differ.
    @raise Failure past 1,000,000 product states. *)
