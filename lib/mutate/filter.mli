(** Cheap mutant filters that run before (and after) vector replay.

    - {!vet} rejects mutants that never reach simulation: designs
      that fail to elaborate ({e stillborn}) and designs the static
      analyser rejects outright (combinational loops, double drivers
      — {e killed statically}).  Both are excluded from the vector
      kill-rate denominator, exactly as a real flow would reject them
      before any simulation cycle is spent.

    - {!equivalent} detects {e equivalent mutants} among survivors:
      the mutant is re-translated and its control state graph fully
      enumerated; because enumeration numbers states canonically
      (BFS from reset with a frozen expansion order), graph
      isomorphism against the pristine design reduces to structural
      equality of the state and adjacency arrays.  Only attempted
      when the pristine graph is small enough to make re-enumeration
      cheap. *)

val vet :
  ?top:string ->
  Avp_hdl.Ast.design ->
  [ `Ok of Avp_hdl.Elab.t | `Stillborn of string | `Static of string ]
(** Elaborate the mutant and run the error-severity static passes.
    [`Static] carries the first error finding (rule and net). *)

val prune :
  checked:string list ->
  pristine:Avp_analysis.Absint.invariants ->
  Avp_hdl.Elab.t ->
  string option
(** [Some "net: why"] when abstract interpretation proves the
    mutant's post-reset invariants disjoint from the pristine
    design's on one of the [checked] nets (a bit proven to differ,
    or non-overlapping value ranges): every replay observation
    differs, so the mutant is dead without simulating a cycle.
    [None] proves nothing either way. *)

val equivalent :
  pristine:Avp_enum.State_graph.t ->
  Avp_hdl.Elab.t ->
  [ `Equivalent | `Different of string | `Unknown of string ]
(** Compare the mutant's enumerated control graph against the
    pristine one.  A pristine graph of more than 10,000 states skips
    the check ([`Unknown]);
    mutants whose translation is rejected (e.g. a dropped assignment
    inferring a new latch) also report [`Unknown] with the reason. *)
