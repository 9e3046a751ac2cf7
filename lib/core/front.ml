open Avp_hdl
open Avp_fsm

let read file =
  if file = "pp" then Avp_pp.Control_hdl.source
  else begin
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  end

let elaborate ?top file = Elab.elaborate ?top (Parser.parse (read file))

let translate ?top src =
  let design = Parser.parse src in
  (design, Translate.translate (Elab.elaborate ?top design))

let translation ?top file = snd (translate ?top (read file))

let presets =
  Avp_pp.Control_model.
    [ ("pp-model", default); ("pp-model-medium", medium);
      ("pp-model-large", large) ]

let model ?top file =
  match List.assoc_opt file presets with
  | Some cfg -> Avp_pp.Control_model.model cfg
  | None ->
    if Filename.check_suffix file ".sml" then Sml.parse (read file)
    else (translation ?top file).Translate.model

let tours ?all_conditions ?instr_limit m =
  let g = Avp_enum.State_graph.enumerate ?all_conditions m in
  (g, Avp_tour.Tour_gen.generate ?instr_limit g)

let guard file f =
  let builtin = file = "pp" || List.mem_assoc file presets in
  let name = if builtin then "avp" else file in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  match f () with
  | v -> Ok v
  | exception (Lexer.Error (msg, loc) | Parser.Error (msg, loc)) ->
    fail "%s:%d:%d: %s" name loc.Ast.line loc.Ast.col msg
  | exception (Elab.Error msg | Translate.Unsupported msg) ->
    fail "%s: %s" name msg
  | exception Sml.Error (msg, line) -> fail "%s:%d: %s" name line msg
  | exception Sim.Comb_loop net ->
    fail
      "%s: combinational loop through net %s does not settle (see avp lint %s)"
      name net name
  | exception Avp_enum.State_graph.Too_many_states n ->
    fail "%s: more than %d reachable states" name n
  | exception Sys_error msg -> Error msg
