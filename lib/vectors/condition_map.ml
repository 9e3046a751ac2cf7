open Avp_fsm

(* Every step taking choice index [c] realizes to the same cycle, so
   the map realizes each index once and hands out the shared, immutable
   cycle after that.  The memo is unsynchronized: one map serves one
   realization call on one domain. *)
type t = {
  model : Model.t;
  widths : (string, int) Hashtbl.t;  (* choice variable -> net width *)
  memo : (int, Vector.cycle) Hashtbl.t;
}

let of_translation (r : Translate.result) =
  (* Choice variables are named after their nets; value index k is the
     k-th domain value, i.e. the bit pattern k. *)
  let widths = Hashtbl.create 8 in
  Array.iter
    (fun (b : Translate.binding) ->
      Hashtbl.replace widths b.Translate.var.Model.name
        b.Translate.net.Avp_hdl.Elab.width)
    r.Translate.choice_bindings;
  { model = r.Translate.model; widths; memo = Hashtbl.create 64 }

let realize map choice =
  let values = Model.choice_of_index map.model choice in
  let actions =
    Array.to_list map.model.Model.choice_vars
    |> List.mapi (fun i (var : Model.var) ->
        match Hashtbl.find_opt map.widths var.Model.name with
        | Some width ->
          let v = Avp_logic.Bv.of_int ~width values.(i) in
          [ Vector.Force (var.Model.name, v) ]
        | None -> [])
    |> List.concat
  in
  { Vector.actions }

let vectors_of_trace map (trace : Avp_tour.Tour_gen.trace) : Vector.t =
  Array.map
    (fun (s : Avp_tour.Tour_gen.step) ->
      let c = s.Avp_tour.Tour_gen.choice in
      match Hashtbl.find_opt map.memo c with
      | Some cycle -> cycle
      | None ->
        let cycle = realize map c in
        Hashtbl.add map.memo c cycle;
        cycle)
    trace

let apply ?(on_reset = fun () -> ()) (vectors : Vector.t) sim ~clock ~reset
    ~on_cycle =
  let one = Avp_logic.Bv.of_int ~width:1 1 in
  let zero = Avp_logic.Bv.of_int ~width:1 0 in
  Avp_hdl.Sim.set sim reset one;
  Avp_hdl.Sim.step sim clock;
  Avp_hdl.Sim.set sim reset zero;
  on_reset ();
  Array.iteri
    (fun i { Vector.actions } ->
      List.iter
        (fun a ->
          match a with
          | Vector.Force (sig_, v) -> Avp_hdl.Sim.force sim sig_ v
          | Vector.Release sig_ -> Avp_hdl.Sim.release sim sig_)
        actions;
      Avp_hdl.Sim.step sim clock;
      on_cycle i)
    vectors
