(** Unified coverage reports.

    One {!t} aggregates what the paper's tables report — reachable
    states and toured transitions, vector counts and replay cycles,
    arc coverage, and mutation scores — and renders deterministically
    as JSON (machine gate) and as a self-contained HTML page (human
    artifact).  Sections are optional so each pipeline stage fills in
    what it actually computed. *)

type enum_section = {
  num_states : int;
  num_edges : int;
  state_bits : int;
  enum_elapsed_s : float;
  levels : int;
}

type tour_section = {
  traces : int;
  traversals : int;
  instructions : int;
  longest_edges : int;
  longest_instructions : int;
  limit_hits : int;
}

type replay_section = {
  replay_traces : int;
  replay_cycles : int;
  ok : bool;
  mismatch : string option;
}

type mutation_family = {
  family : string;
  fam_total : int;
  fam_candidates : int;
  fam_killed_tour : int;
  fam_killed_random : int;
  fam_equivalent : int;
  fam_survived : int;
  fam_rejected : int;
}

type mutation_section = {
  mutants : int;
  candidates : int;
  tour_killed : int;
  tour_rate : float;
  random_killed : int;
  random_rate : float;
  families : mutation_family list;
}

(** One row per vector generator in the fuzz comparison: transition
    tours, the size-matched pure-random baseline, and the distilled
    fuzz corpus. *)
type fuzz_method = {
  fz_method : string;
  fz_entries : int;
  fz_cycles : int;  (** vectors replayed against each mutant *)
  fz_gen_cycles : int;  (** vectors spent generating the set *)
  fz_states : int;
  fz_arcs : int;
  fz_pairs : int;  (** (state, input-class) pairs covered *)
  fz_killed : int;
  fz_rate : float;
  fz_mean_v2k : float;  (** mean vectors-to-kill over its kills *)
}

type fuzz_section = {
  fz_seed : int;
  fz_budget : int;
  fz_rounds : int;
  fz_executed : int;
  fz_corpus : int;
  fz_explore_cycles : int;
  fz_arcs_total : int;
  fz_candidates : int;
  fz_methods : fuzz_method list;
}

type table = {
  table_title : string;
  header : string list;
  rows : string list list;
}

type t = {
  title : string;
  design : string;
  enum : enum_section option;
  tour : tour_section option;
  coverage : Coverage.summary option;
  replay : replay_section option;
  mutation : mutation_section option;
  fuzz : fuzz_section option;
  profile : Prof.t option;  (** span analytics + flame view *)
  tables : table list;
  notes : string list;
}

val empty : title:string -> design:string -> t

val to_json : t -> string
(** Deterministic pretty-printed JSON. *)

val to_html : t -> string
(** Self-contained single-file HTML page (inline CSS, no external
    assets). *)

val write : t -> dir:string -> unit
(** Create [dir] (and parents) and write [report.json] and
    [report.html]. *)
