(** Cycle-accounting comparison — the check the paper's Section 4 says
    result comparison cannot do.

    "The only way to detect such [performance] bugs with our result
    comparison is to make the specification model cycle-accurate."
    Rather than duplicating the RTL as a second cycle-accurate model
    (which the paper warns breeds common-mode errors), this harness
    compares the device under test against a {e reference
    configuration} of the same RTL: same stimulus, same results, but
    any systematic cycle inflation is flagged. *)

type report = {
  cycles : int;
  instructions : int;
  cpi : float;
  elapsed_s : float;  (** wall-clock time of the run, {!Avp_obs.Obs.Timer} *)
}

type verdict = {
  reference : report;
  dut : report;
  slowdown : float;  (** dut cpi / reference cpi *)
  results_match : bool;  (** the Section 4 blind spot: often [true] *)
}

val compare :
  reference:Avp_pp.Rtl.config ->
  dut:Avp_pp.Rtl.config ->
  ?max_cycles:int ->
  Drive.stimulus ->
  verdict

val pp_verdict : Format.formatter -> verdict -> unit
