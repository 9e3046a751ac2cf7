open Avp_fsm

(* Seeded mutational operators over corpus entries, in the style of
   lib/mutate's seeded Fisher-Yates sampling: every random draw comes
   from the one [Random.State.t] the loop owns, so a fixed seed fixes
   the entire campaign.

   All operators preserve well-formedness by construction: results
   are non-empty, at most [max_len] long, and every element stays a
   valid flat choice index.  Field-level operators decode the flat
   index into the per-variable valuation (row-major, as
   {!Model.choice_of_index}), nudge or re-roll one field, and
   re-encode. *)

type space = {
  model : Model.t;
  num_choices : int;
  max_len : int;
}

let space ?(max_len = 48) model =
  { model; num_choices = Model.num_choices model; max_len = max 1 max_len }

let random_entry sp rng ~len =
  let len = max 1 (min len sp.max_len) in
  Array.init len (fun _ -> Random.State.int rng sp.num_choices)

let clamp sp e =
  if Array.length e <= sp.max_len then e else Array.sub e 0 sp.max_len

(* Replace one position with a uniformly random choice — the class
   re-roll. *)
let point sp rng e =
  let e = Array.copy e in
  e.(Random.State.int rng (Array.length e)) <-
    Random.State.int rng sp.num_choices;
  e

(* Decode one position's choice, flip or off-by-one a single choice
   variable, re-encode. *)
let field_tweak sp rng e =
  let e = Array.copy e in
  let p = Random.State.int rng (Array.length e) in
  let v = Array.copy (Model.choice_of_index sp.model e.(p)) in
  let cvars = sp.model.Model.choice_vars in
  if Array.length cvars > 0 then begin
    let k = Random.State.int rng (Array.length cvars) in
    let card = Model.card cvars.(k) in
    if card > 1 then
      if Random.State.bool rng then v.(k) <- (v.(k) + 1) mod card
      else v.(k) <- Random.State.int rng card;
    e.(p) <- Model.index_of_choice sp.model v
  end;
  e

(* Crossover: a prefix of the seed spliced onto a suffix of another
   corpus entry. *)
let splice sp rng ~(corpus : Corpus.entry array) e =
  if Array.length corpus = 0 then point sp rng e
  else begin
    let other = corpus.(Random.State.int rng (Array.length corpus)) in
    let cut1 = Random.State.int rng (Array.length e + 1) in
    let cut2 = Random.State.int rng (Array.length other) in
    let joined =
      Array.append (Array.sub e 0 cut1)
        (Array.sub other cut2 (Array.length other - cut2))
    in
    let joined = clamp sp joined in
    if Array.length joined = 0 then point sp rng e else joined
  end

let truncate sp rng e =
  let n = Array.length e in
  if n <= 1 then point sp rng e
  else Array.sub e 0 (1 + Random.State.int rng (n - 1))

let extend sp rng e =
  let n = Array.length e in
  if n >= sp.max_len then point sp rng e
  else begin
    let k = 1 + Random.State.int rng (min 32 (sp.max_len - n)) in
    Array.append e (Array.init k (fun _ -> Random.State.int rng sp.num_choices))
  end

(* Re-roll a short window of consecutive cycles. *)
let window sp rng e =
  let e = Array.copy e in
  let n = Array.length e in
  let a = Random.State.int rng n in
  let w = 1 + Random.State.int rng (min 8 (n - a)) in
  for i = a to a + w - 1 do
    e.(i) <- Random.State.int rng sp.num_choices
  done;
  e

(* Extension dominates: a kept entry's walk ends at a frontier state
   that fresh random walks (always restarting from reset) rarely
   reach, so appending a random suffix is the op that discovers new
   arcs — the others diversify around what the corpus already
   reaches.  Weights are static so one PRNG draw picks the op. *)
let op_weights =
  [| (6, `Extend); (2, `Splice); (2, `Window); (1, `Point); (1, `Field);
     (1, `Truncate) |]

let weight_total = Array.fold_left (fun s (w, _) -> s + w) 0 op_weights

let mutate sp rng ~corpus e =
  let r = Random.State.int rng weight_total in
  let acc = ref 0 in
  let op = ref `Extend in
  (try
     Array.iter
       (fun (w, o) ->
         acc := !acc + w;
         if r < !acc then begin
           op := o;
           raise Exit
         end)
       op_weights
   with Exit -> ());
  match !op with
  | `Point -> point sp rng e
  | `Field -> field_tweak sp rng e
  | `Splice -> splice sp rng ~corpus e
  | `Truncate -> truncate sp rng e
  | `Extend -> extend sp rng e
  | `Window -> window sp rng e
