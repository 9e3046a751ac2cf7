open Avp_analysis

let vet ?top (design : Avp_hdl.Ast.design) =
  match Avp_hdl.Elab.elaborate ?top design with
  | exception Avp_hdl.Elab.Error msg -> `Stillborn msg
  | exception e -> `Stillborn (Printexc.to_string e)
  | elab -> (
    match Analysis.errors (Analysis.run elab) with
    | [] -> `Ok elab
    | f :: _ ->
      `Static
        (Printf.sprintf "%s%s" f.Finding.rule
           (match f.Finding.net with
            | Some n -> ": " ^ n
            | None -> "")))

(* Abstract-interpretation prune: when the mutant's proven post-reset
   invariants are disjoint from the pristine design's on a checked
   net, every replay observation differs — the mutant dies without a
   single simulated cycle.  Purely an over-approximation comparison,
   so a [None] says nothing; a [Some] is a proof. *)
let prune ~checked ~(pristine : Absint.invariants) (elab : Avp_hdl.Elab.t) =
  match Absint.analyze elab with
  | exception _ -> None
  | mutant -> (
    match Absint.divergence ~nets:checked pristine mutant with
    | Some (net, why) -> Some (Printf.sprintf "%s: %s" net why)
    | None -> None)

let equivalent ?(max_states = 10_000) ~(pristine : Avp_enum.State_graph.t)
    (elab : Avp_hdl.Elab.t) =
  let n = Avp_enum.State_graph.num_states pristine in
  if n > max_states then
    `Unknown (Printf.sprintf "pristine graph too large (%d states)" n)
  else
    match Avp_fsm.Translate.translate elab with
    | exception Avp_fsm.Translate.Unsupported msg ->
      `Unknown ("translation rejected: " ^ msg)
    | exception e -> `Unknown ("translation raised: " ^ Printexc.to_string e)
    | tr -> (
      (* Give the mutant head-room: exceeding it proves the graphs
         differ without enumerating an unboundedly larger space. *)
      match
        Avp_enum.State_graph.enumerate ~max_states:((2 * n) + 16)
          tr.Avp_fsm.Translate.model
      with
      | exception Avp_enum.State_graph.Too_many_states _ ->
        `Different "reaches more states than the pristine design"
      | exception e -> `Unknown ("enumeration raised: " ^ Printexc.to_string e)
      | g ->
        if
          g.Avp_enum.State_graph.states = pristine.Avp_enum.State_graph.states
          && g.Avp_enum.State_graph.adj = pristine.Avp_enum.State_graph.adj
        then `Equivalent
        else
          `Different
            (Printf.sprintf "state graph differs (%d vs %d states, %d vs %d edges)"
               (Avp_enum.State_graph.num_states g)
               n
               (Avp_enum.State_graph.num_edges g)
               (Avp_enum.State_graph.num_edges pristine)))
