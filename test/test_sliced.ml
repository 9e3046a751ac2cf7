(* Differential tests for the bit-sliced batched engine.

   Four layers:

   - transposed bitvector properties: every [Bv_sliced] operation on
     random lane arrays (lane counts 1..62, widths crossing the
     62-bit word boundary) must agree lane-for-lane with the scalar
     [Bv] operation;

   - batched engine differential: the control design driven with
     per-lane random stimulus (pokes, forces, releases) must track
     one reference interpreter per lane, net-for-net;

   - mutant schemata differential: every pp control mutant must be
     scheduled into its chunk's schemata kernel, and each lane of the
     first kernel must track a scalar simulator of that mutant's own
     elaboration;

   - mutant detection: [Campaign.detect]'s schemata passes must
     report, per mutant and phase, the outcome of that mutant's own
     scalar replays. *)

open Avp_logic
open Avp_hdl
module Sl = Bv_sliced

let gen_bit =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.return Bit.L0);
      (4, QCheck.Gen.return Bit.L1);
      (1, QCheck.Gen.return Bit.X);
      (1, QCheck.Gen.return Bit.Z);
    ]

let gen_bv w =
  QCheck.Gen.map Bv.of_bits (QCheck.Gen.list_size (QCheck.Gen.return w) gen_bit)

(* A batch: 1..62 lanes of equal width, widths crossing the packed /
   wide boundary so the per-design-bit layout is exercised beyond one
   word's worth of bits. *)
let gen_batch =
  QCheck.Gen.(
    int_range 1 70 >>= fun w ->
    int_range 1 62 >>= fun k ->
    map Array.of_list (list_size (return k) (gen_bv w)))

let gen_batch_pair =
  QCheck.Gen.(
    pair (int_range 1 70) (int_range 1 70) >>= fun (wa, wb) ->
    int_range 1 62 >>= fun k ->
    pair
      (map Array.of_list (list_size (return k) (gen_bv wa)))
      (map Array.of_list (list_size (return k) (gen_bv wb))))

let prop name gen f = QCheck.Test.make ~name ~count:300 (QCheck.make gen) f

let lanes_agree name expected (batch : Sl.t) =
  Array.iteri
    (fun l e ->
      let actual = Sl.lane batch l in
      if not (Bv.equal e actual) then
        Alcotest.failf "%s lane %d: expected %s got %s" name l
          (Bv.to_string e) (Bv.to_string actual))
    expected;
  true

let bit1 b = Bv.of_bits [ b ]

let prop_bitwise =
  prop "sliced bitwise ops = per-lane Bv" gen_batch_pair (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      List.for_all
        (fun (name, slf, bvf) ->
          lanes_agree name
            (Array.map2 bvf xs ys)
            (slf sx sy))
        [
          ("logand", Sl.logand, Bv.logand);
          ("logor", Sl.logor, Bv.logor);
          ("logxor", Sl.logxor, Bv.logxor);
          ("resolve", Sl.resolve, Bv.resolve);
          ("add", Sl.add, Bv.add);
          ("sub", Sl.sub, Bv.sub);
          ("mul", Sl.mul, Bv.mul);
          ("shl", Sl.shift_left, Bv.shift_left);
          ("shr", Sl.shift_right, Bv.shift_right);
        ])

let prop_relational =
  prop "sliced relational ops = per-lane Bv" gen_batch_pair (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      List.for_all
        (fun (name, slf, bvf) ->
          lanes_agree name
            (Array.map2 (fun a b -> bit1 (bvf a b)) xs ys)
            (slf sx sy))
        [
          ("eq", Sl.eq, Bv.eq);
          ("neq", Sl.neq, Bv.neq);
          ("lt", Sl.lt, Bv.lt);
          ("le", Sl.le, Bv.le);
          ("gt", Sl.gt, Bv.gt);
          ("ge", Sl.ge, Bv.ge);
          ("case_eq", Sl.case_eq, fun a b -> Bv.case_eq a b);
          ( "case_neq",
            Sl.case_neq,
            fun a b ->
              match Bv.case_eq a b with
              | Bit.L1 -> Bit.L0
              | _ -> Bit.L1 );
        ])

let prop_unary =
  prop "sliced unary ops = per-lane Bv" gen_batch (fun xs ->
      let sx = Sl.of_lanes xs in
      lanes_agree "lognot" (Array.map Bv.lognot xs) (Sl.lognot sx)
      && lanes_agree "neg" (Array.map Bv.neg xs) (Sl.neg sx)
      && lanes_agree "reduce_and"
           (Array.map (fun x -> bit1 (Bv.reduce_and x)) xs)
           (Sl.reduce_and sx)
      && lanes_agree "reduce_or"
           (Array.map (fun x -> bit1 (Bv.reduce_or x)) xs)
           (Sl.reduce_or sx)
      && lanes_agree "reduce_xor"
           (Array.map (fun x -> bit1 (Bv.reduce_xor x)) xs)
           (Sl.reduce_xor sx))

(* The interpreter's logical connectives: both sides evaluated, X
   when either side's truth value is undecidable. *)
let ref_logical2 f a b =
  match (Bv.to_bool a, Bv.to_bool b) with
  | Some x, Some y -> bit1 (if f x y then Bit.L1 else Bit.L0)
  | _ -> bit1 Bit.X

let prop_logical =
  prop "sliced logical connectives = interpreter rules" gen_batch_pair
    (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      lanes_agree "logical_and"
        (Array.map2 (ref_logical2 ( && )) xs ys)
        (Sl.logical_and sx sy)
      && lanes_agree "logical_or"
           (Array.map2 (ref_logical2 ( || )) xs ys)
           (Sl.logical_or sx sy)
      && lanes_agree "logical_not"
           (Array.map
              (fun x ->
                match Bv.to_bool x with
                | Some b -> bit1 (if b then Bit.L0 else Bit.L1)
                | None -> bit1 Bit.X)
              xs)
           (Sl.logical_not sx)
      && lanes_agree "truth-as-masks"
           (Array.map
              (fun x ->
                bit1
                  (match Bv.to_bool x with
                   | Some true -> Bit.L1
                   | Some false -> Bit.L0
                   | None -> Bit.X))
              xs)
           (let t1, t0, tx = Sl.truth sx in
            ignore t0;
            Sl.make 1 (fun _ -> (t1 lor tx, tx))))

(* Mux with equal arm widths (the only shape the engines accept). *)
let gen_mux =
  QCheck.Gen.(
    int_range 1 70 >>= fun w ->
    int_range 1 8 >>= fun wc ->
    int_range 1 62 >>= fun k ->
    let lanes g = map Array.of_list (list_size (return k) g) in
    triple (lanes (gen_bv wc)) (lanes (gen_bv w)) (lanes (gen_bv w)))

let prop_mux =
  prop "sliced mux = interpreter ternary" gen_mux (fun (cs, xs, ys) ->
      let r = Sl.mux ~sel:(Sl.of_lanes cs) (Sl.of_lanes xs) (Sl.of_lanes ys) in
      let expected =
        Array.init (Array.length cs) (fun l ->
            match Bv.to_bool cs.(l) with
            | Some true -> xs.(l)
            | Some false -> ys.(l)
            | None -> Bv.mux ~sel:Bit.X xs.(l) ys.(l))
      in
      lanes_agree "mux" expected r)

let prop_structural =
  prop "sliced structural ops = per-lane Bv" gen_batch_pair (fun (xs, ys) ->
      let sx = Sl.of_lanes xs and sy = Sl.of_lanes ys in
      let w = Bv.width xs.(0) in
      let hi = (w - 1) / 2 and lo = 0 in
      lanes_agree "resize+4"
        (Array.map (fun x -> Bv.resize x (w + 4)) xs)
        (Sl.resize sx (w + 4))
      && lanes_agree "resize-1"
           (Array.map (fun x -> Bv.resize x (max 1 (w - 1))) xs)
           (Sl.resize sx (max 1 (w - 1)))
      && lanes_agree "select"
           (Array.map (fun x -> Bv.select x ~hi ~lo) xs)
           (Sl.select sx ~hi ~lo)
      && lanes_agree "concat"
           (Array.map2 Bv.concat xs ys)
           (Sl.concat sx sy)
      && lanes_agree "repeat"
           (Array.map (fun x -> Bv.repeat 3 x) xs)
           (Sl.repeat 3 sx))

(* Dynamic index against the interpreter's rule: undefined or
   out-of-range index reads X. *)
let prop_index =
  prop "sliced dynamic index = interpreter rule" gen_batch_pair
    (fun (xs, is) ->
      let w = Bv.width xs.(0) in
      let r = Sl.index (Sl.of_lanes xs) (Sl.of_lanes is) in
      let expected =
        Array.map2
          (fun x i ->
            match Bv.to_int i with
            | Some n when n < w -> bit1 (Bv.get x n)
            | _ -> bit1 Bit.X)
          xs is
      in
      lanes_agree "index" expected r)

let prop_merge =
  prop "merge picks lanes by mask" gen_batch_pair (fun (xs, ys) ->
      let k = min (Array.length xs) (Array.length ys) in
      let xs = Array.sub xs 0 k and ys = Array.sub ys 0 k in
      let wa = Bv.width xs.(0) and wb = Bv.width ys.(0) in
      let w = max wa wb in
      let mask = 0b1011 land ((1 lsl k) - 1) in
      let r = Sl.merge ~mask (Sl.of_lanes xs) (Sl.of_lanes ys) in
      let expected =
        Array.init k (fun l ->
            Bv.resize (if (mask lsr l) land 1 = 1 then xs.(l) else ys.(l)) w)
      in
      lanes_agree "merge" expected r)

(* ------------------------------------------------------------------ *)
(* Batched engine vs one scalar simulator per lane                    *)
(* ------------------------------------------------------------------ *)

let control_inputs =
  [
    ("i_hit", 1); ("d_hit", 1); ("instr", 3); ("inbox_rdy", 1);
    ("outbox_rdy", 1); ("mem_adv", 1); ("dirty", 1); ("same_line", 1);
  ]

let lcg seed =
  let s = ref seed in
  fun n ->
    s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !s lsr 20 mod n

let nets_agree_lane d sliced ~lane scalar ~cycle =
  Array.iter
    (fun (net : Elab.enet) ->
      let b = Sliced.get_lane sliced ~lane net.Elab.id in
      let s = Sim.get_id scalar net.Elab.id in
      if not (Bv.equal b s) then
        Alcotest.failf "cycle %d lane %d: %s = %s but scalar has %s" cycle
          lane net.Elab.name (Bv.to_string b) (Bv.to_string s))
    d.Elab.nets

let test_engine_differential () =
  let d = Avp_pp.Control_hdl.elaborate () in
  let lanes = 5 in
  let sliced =
    match Sliced.create ~lanes d with
    | Some s -> s
    | None -> Alcotest.fail "sliced engine rejected the control design"
  in
  let scalars =
    Array.init lanes (fun _ -> Sim.create d)
  in
  let rand = lcg 424242 in
  let id n = Elab.net_id d n in
  let clk = id "clk" in
  (* Reset all lanes. *)
  Sliced.poke_id sliced (id "rst") (Bv.of_int ~width:1 1);
  Sliced.settle sliced;
  Array.iter (fun s -> Sim.set s "rst" (Bv.of_int ~width:1 1)) scalars;
  Sliced.step sliced clk;
  Array.iter (fun s -> Sim.step s "clk") scalars;
  Sliced.poke_id sliced (id "rst") (Bv.of_int ~width:1 0);
  Sliced.settle sliced;
  Array.iter (fun s -> Sim.set s "rst" (Bv.of_int ~width:1 0)) scalars;
  for cycle = 1 to 150 do
    (* Fresh random inputs per lane. *)
    List.iter
      (fun (n, w) ->
        for l = 0 to lanes - 1 do
          let v = Bv.of_int ~width:w (rand (1 lsl w)) in
          Sliced.poke_id ~mask:(1 lsl l) sliced (id n) v;
          Sim.set scalars.(l) n v
        done)
      control_inputs;
    Sliced.settle sliced;
    (* Occasionally pin / unpin one lane's input mid-run. *)
    if cycle mod 23 = 0 then begin
      let l = rand lanes in
      Sliced.force_id ~mask:(1 lsl l) sliced (id "d_hit")
        (Bv.of_int ~width:1 0);
      Sim.force scalars.(l) "d_hit" (Bv.of_int ~width:1 0)
    end;
    if cycle mod 23 = 11 then begin
      let l = rand lanes in
      Sliced.release_id ~mask:(1 lsl l) sliced (id "d_hit");
      Sim.release scalars.(l) "d_hit"
    end;
    Sliced.step sliced clk;
    Array.iter (fun s -> Sim.step s "clk") scalars;
    for l = 0 to lanes - 1 do
      nets_agree_lane d sliced ~lane:l scalars.(l) ~cycle
    done
  done

(* ------------------------------------------------------------------ *)
(* Mutant schemata vs one scalar simulator per mutant                 *)
(* ------------------------------------------------------------------ *)

let test_schemata_differential () =
  let base = Avp_pp.Control_hdl.elaborate () in
  let design = Avp_pp.Control_hdl.parse () in
  let muts =
    Avp_mutate.Gen.all design
    |> List.filter_map (fun (m : Avp_mutate.Gen.mutant) ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Ok dut -> Some dut
        | `Stillborn _ | `Static _ -> None)
    |> Array.of_list
  in
  let n = Array.length muts in
  Alcotest.(check int) "vetted pp mutants" 162 n;
  (* The campaign replays the vetted mutants as ceil(n/62) schemata
     kernels; every lane of every kernel must be scheduled, or its
     mutant falls back to scalar replays. *)
  let kernels =
    Array.init ((n + Sl.lanes_limit - 1) / Sl.lanes_limit) (fun c ->
        let c0 = c * Sl.lanes_limit in
        let chunk = Array.sub muts c0 (min Sl.lanes_limit (n - c0)) in
        match Sliced.create_schemata ~base chunk with
        | None -> Alcotest.fail "schemata kernel rejected the control design"
        | Some (sliced, scheduled) ->
          let n_sched =
            Array.fold_left (fun a b -> if b then a + 1 else a) 0 scheduled
          in
          if n_sched < Array.length chunk then
            Alcotest.failf "kernel %d: only %d of %d mutants schedulable" c
              n_sched (Array.length chunk);
          (chunk, sliced))
  in
  (* Simulation stays on the first kernel. *)
  let muts, sliced = kernels.(0) in
  let scalars =
    Array.map (fun md -> Sim.create md) muts
  in
  let rand = lcg 777 in
  let id n = Elab.net_id base n in
  let clk = id "clk" in
  let both_set n v =
    Sliced.poke_id sliced (id n) v;
    Sliced.settle sliced;
    Array.iter (fun s -> Sim.set s n v) scalars
  in
  both_set "rst" (Bv.of_int ~width:1 1);
  Sliced.step sliced clk;
  Array.iter (fun s -> Sim.step s "clk") scalars;
  both_set "rst" (Bv.of_int ~width:1 0);
  for cycle = 1 to 60 do
    (* Identical stimulus for every lane, as the kill campaign does. *)
    List.iter
      (fun (n, w) -> both_set n (Bv.of_int ~width:w (rand (1 lsl w))))
      control_inputs;
    Sliced.step sliced clk;
    Array.iter (fun s -> Sim.step s "clk") scalars;
    Array.iteri
      (fun l scalar -> nets_agree_lane base sliced ~lane:l scalar ~cycle)
      scalars
  done

(* A one-lane sliced kernel must track the interpreter on the control
   design, net for net, through a long random drive that pins and
   releases an input mid-run, as the generated vectors do. *)
let test_one_lane_sliced () =
  let d = Avp_pp.Control_hdl.elaborate () in
  let sliced =
    match Sliced.create ~lanes:1 d with
    | Some s -> s
    | None -> Alcotest.fail "sliced engine rejected the control design"
  in
  let interp = Sim.create d in
  let rand = lcg 99 in
  let id n = Elab.net_id d n in
  let clk = id "clk" in
  let both_set n v =
    Sliced.poke_id sliced (id n) v;
    Sliced.settle sliced;
    Sim.set interp n v
  in
  let both_step () =
    Sliced.step sliced clk;
    Sim.step interp "clk"
  in
  both_set "rst" (Bv.of_int ~width:1 1);
  both_step ();
  both_set "rst" (Bv.of_int ~width:1 0);
  for cycle = 1 to 300 do
    List.iter
      (fun (n, w) -> both_set n (Bv.of_int ~width:w (rand (1 lsl w))))
      control_inputs;
    if cycle mod 37 = 0 then begin
      Sliced.force_id sliced (id "d_hit") (Bv.of_int ~width:1 0);
      Sliced.settle sliced;
      Sim.force interp "d_hit" (Bv.of_int ~width:1 0)
    end;
    if cycle mod 37 = 11 then begin
      Sliced.release_id sliced (id "d_hit");
      Sliced.settle sliced;
      Sim.release interp "d_hit"
    end;
    both_step ();
    nets_agree_lane d sliced ~lane:0 interp ~cycle
  done

(* The per-lane int poke and read against [get_lane]: every lane holds
   its own defined value after [poke_ints], a net computed from it
   follows after a settle (the readers were marked), undefined lanes
   are flagged by [get_ints], and a forced lane keeps its value. *)
let test_lane_ints () =
  let d =
    Elab.elaborate
      (Parser.parse
         {|
module t(a, b, y);
  input [5:0] a;
  input [3:0] b;
  output [5:0] y;
  assign y = a ^ {2'b00, b};
endmodule
|})
  in
  let id n = Elab.net_id d n in
  List.iter
    (fun lanes ->
      let k =
        match Sliced.create ~lanes d with
        | Some k -> k
        | None -> Alcotest.fail "sliced engine rejected the design"
      in
      let rand = lcg (lanes + 5) in
      let got = Array.make lanes 0 in
      let check ~what net expected ~undefined =
        let bad = Sliced.get_ints k (id net) got in
        Alcotest.(check int) (what ^ ": undefined lanes") undefined bad;
        for l = 0 to lanes - 1 do
          let v = Sliced.get_lane k ~lane:l (id net) in
          if (undefined lsr l) land 1 = 1 then
            Alcotest.(check bool) (what ^ ": lane is undefined") false
              (Bv.is_defined v)
          else begin
            Alcotest.(check (option int))
              (Printf.sprintf "%s: lane %d = get_lane" what l)
              (Bv.to_int v) (Some got.(l));
            Alcotest.(check int)
              (Printf.sprintf "%s: lane %d value" what l)
              (expected l) got.(l)
          end
        done
      in
      for round = 1 to 3 do
        let a = Array.init lanes (fun _ -> rand 64)
        and b = Array.init lanes (fun _ -> rand 16) in
        Sliced.poke_ints k (id "a") a;
        Sliced.poke_ints k (id "b") b;
        Sliced.settle k;
        let what = Printf.sprintf "lanes=%d round %d" lanes round in
        check ~what "a" (fun l -> a.(l)) ~undefined:0;
        check ~what "y" (fun l -> a.(l) lxor b.(l)) ~undefined:0;
        (* Values wider than the net are truncated to it. *)
        Sliced.poke_ints k (id "b") (Array.map (fun v -> v + 16) b);
        Sliced.settle k;
        check ~what:(what ^ ", truncated") "b" (fun l -> b.(l)) ~undefined:0;
        (* An X in some lanes of [a] reaches [y] in exactly those. *)
        let xs = (0b101 lsl (round - 1)) land Sliced.amask k in
        Sliced.poke_id ~mask:xs k (id "a") (Bv.of_string "1x0000");
        Sliced.settle k;
        check ~what:(what ^ ", X lanes") "y"
          (fun l -> a.(l) lxor b.(l))
          ~undefined:xs
      done;
      (* A forced lane is skipped, as by [poke_id]. *)
      Sliced.force_id ~mask:1 k (id "a") (Bv.of_int ~width:6 33);
      Sliced.poke_ints k (id "a") (Array.make lanes 7);
      Sliced.settle k;
      check ~what:"forced lane 0" "a"
        (fun l -> if l = 0 then 33 else 7)
        ~undefined:0)
    [ 1; 7; 62 ]

(* ------------------------------------------------------------------ *)
(* Mutant detection: schemata passes vs per-mutant scalar replays     *)
(* ------------------------------------------------------------------ *)

let pp_outcome = function
  | Avp_mutate.Campaign.Clean -> "clean"
  | Avp_mutate.Campaign.Mismatch m ->
    Format.asprintf "mismatch: %a" Avp_vectors.Replay.pp_mismatch m
  | Avp_mutate.Campaign.Escape d -> "escape: " ^ d

(* Single-oracle phases, unchained — the shape the fuzz generator
   comparison scores with — over vetted pp mutants, a mix of killed,
   escaping and X-escaping ones: every mutant must get the same outcome
   per phase on both engines, whatever the lane count.  The tour is
   segmented so that the replays span many traces, like the fuzz corpus
   and the random baseline.  Three inputs: the first 25 mutants at 7
   and 62 lanes (one and two slots per chunk), and two that leave lanes
   spare — 16 mutants at 62 lanes (3 slots of 16) and 3 at 62 (20 slots
   of 3), where the slots replay different traces side by side, so
   issues come in out of trace order.  Each input holds a clean mutant,
   an escaping one and one whose first mismatch is in a later trace. *)
let test_detect_engines () =
  let module C = Avp_mutate.Campaign in
  let design = Avp_pp.Control_hdl.parse () in
  let tr = Avp_fsm.Translate.translate (Elab.elaborate design) in
  let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate ~instr_limit:100 graph in
  let rtours = C.random_tours ~seed:1 graph tours in
  let tvecs = Avp_vectors.Replay.vectors tr tours in
  let rvecs = Avp_vectors.Replay.vectors tr rtours in
  let outs = C.output_ports design ~top:tr.Avp_fsm.Translate.elab.Elab.top in
  let rows = Avp_vectors.Replay.record tr ~nets:outs [| tvecs; rvecs |] in
  let phase vectors oracle = { C.vectors; chain = [| oracle |] } in
  let phases =
    [|
      phase tvecs (C.States tours);
      phase tvecs (C.Nets (outs, rows.(0)));
      phase rvecs (C.Nets (outs, rows.(1)));
      (* A wrong post-reset prediction in trace 0 makes every mutant
         mismatch at once; a mutant that leaves the defined domain in
         a later trace must still report the escape, as the scalar
         replay of every trace does. *)
      (let r = Array.map (Array.map Array.copy) rows.(0) in
       r.(0).(0).(0) <- r.(0).(0).(0) + 1;
       phase tvecs (C.Nets (outs, r)));
    |]
  in
  let muts =
    Avp_mutate.Gen.all design
    |> List.filter_map (fun (m : Avp_mutate.Gen.mutant) ->
        match Avp_mutate.Filter.vet m.Avp_mutate.Gen.design with
        | `Ok dut -> Some (m.Avp_mutate.Gen.id, dut)
        | `Stillborn _ | `Static _ -> None)
    |> List.filteri (fun i _ -> i < 25)
    |> Array.of_list
  in
  let detect engine ~lanes muts =
    let got = Array.make (Array.length muts) [||] in
    C.detect ~engine ~lanes ~tr ~graph
      ~on_done:(fun ~t0:_ j o -> got.(j) <- o)
      phases (Array.map snd muts);
    got
  in
  let kind = function
    | C.Clean -> "clean"
    | C.Mismatch _ -> "mismatch"
    | C.Escape _ -> "escape"
  in
  List.iter
    (fun (muts, lanes_list) ->
      let what = Printf.sprintf "%d mutants" (Array.length muts) in
      let scalar = detect `Scalar ~lanes:1 muts in
      let kinds = Hashtbl.create 3 in
      Array.iter
        (Array.iter (fun o -> Hashtbl.replace kinds (kind o) ()))
        scalar;
      Alcotest.(check int)
        (what ^ ": clean, mismatch and escape outcomes all occur")
        3 (Hashtbl.length kinds);
      Alcotest.(check bool)
        (what ^ ": a later-trace escape preempts the trace-0 mismatch")
        true
        (Array.exists (fun o -> kind o.(3) = "escape") scalar);
      List.iter
        (fun lanes ->
          let sliced = detect `Sliced ~lanes muts in
          Array.iteri
            (fun j (mid, _) ->
              Array.iteri
                (fun k o ->
                  if o <> sliced.(j).(k) then
                    Alcotest.failf
                      "%s, lanes=%d mutant %d phase %d: scalar %s but \
                       sliced %s"
                      what lanes mid k (pp_outcome o)
                      (pp_outcome sliced.(j).(k)))
                scalar.(j))
            muts)
        lanes_list)
    [
      (muts, [ 7; 62 ]);
      (Array.sub muts 6 16, [ 62 ]);
      (Array.map (Array.get muts) [| 2; 14; 18 |], [ 62 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Output recording on lanes vs the scalar per-trace recording        *)
(* ------------------------------------------------------------------ *)

(* The per-trace recording on a scalar simulator, as [Replay.record]
   did before it ran on lanes. *)
let scalar_record (tr : Avp_fsm.Translate.result) ~nets vectors =
  Array.map
    (fun (v : Avp_vectors.Vector.t) ->
      let rows = Array.make_matrix (Array.length v + 1) (Array.length nets) 0 in
      let sim = Sim.create tr.Avp_fsm.Translate.elab in
      let snap row =
        Array.iteri
          (fun vi net ->
            rows.(row).(vi) <-
              Avp_fsm.Translate.value_of_bv (Sim.get sim net))
          nets
      in
      Avp_vectors.Condition_map.apply v sim ~clock:tr.Avp_fsm.Translate.clock
        ~reset:tr.Avp_fsm.Translate.reset
        ~on_reset:(fun () -> snap 0)
        ~on_cycle:(fun i -> snap (i + 1));
      rows)
    vectors

let outcome f =
  match f () with
  | rows -> Ok rows
  | exception Avp_fsm.Translate.Unsupported msg -> Error msg

(* Hand-written traces of one 2-bit free input [a]. *)
let traces_of_a (values : int list list) =
  Array.of_list
    (List.map
       (fun vs ->
         Array.of_list
           (List.map
              (fun v ->
                {
                  Avp_vectors.Vector.actions =
                    [ Avp_vectors.Vector.Force ("a", Bv.of_int ~width:2 v) ];
                })
              vs))
       values)

let test_record_lanes () =
  let design = Avp_pp.Control_hdl.parse () in
  let tr = Avp_fsm.Translate.translate (Elab.elaborate design) in
  let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let module C = Avp_mutate.Campaign in
  let outs = C.output_ports design ~top:tr.Avp_fsm.Translate.elab.Elab.top in
  let tour = Avp_tour.Tour_gen.generate graph in
  let segmented = Avp_tour.Tour_gen.generate ~instr_limit:100 graph in
  let walks = C.random_tours ~seed:1 graph segmented in
  let sets =
    Array.map (Avp_vectors.Replay.vectors tr) [| tour; segmented; walks |]
  in
  let lanes = Avp_vectors.Replay.record tr ~nets:outs sets in
  Array.iteri
    (fun k set ->
      if lanes.(k) <> scalar_record tr ~nets:outs set then
        Alcotest.failf "set %d: lane rows differ from the scalar recording" k)
    sets;
  (* [q] goes X under a = 2 or a = 3, with different X patterns: the
     scalar recording raises at the first trace that does, whose
     message the lane recording must raise too. *)
  let xsrc =
    {|
module xout (clk, rst, a, y);
  input clk, rst;
  input [1:0] a;
  output [1:0] y;
  reg [1:0] q; // avp state
  // avp clock clk
  // avp reset rst
  // avp free a
  always @(posedge clk) begin
    if (rst) q <= 2'b00;
    else if (a == 2'b10) q <= 2'bx0;
    else if (a == 2'b11) q <= 2'b0x;
    else q <= a;
  end
  assign y = q;
endmodule
|}
  in
  let xtr = Avp_fsm.Translate.translate (Elab.elaborate (Parser.parse xsrc)) in
  let xvecs = traces_of_a [ [ 0; 1 ]; [ 1; 0; 1; 3; 0 ]; [ 2; 0 ]; [ 1 ] ] in
  let expected = outcome (fun () -> scalar_record xtr ~nets:[| "y" |] xvecs) in
  Alcotest.(check (result unit string))
    "undefined output: the scalar message" (Error "undefined value 0x cannot encode a state")
    (Result.map ignore expected);
  Alcotest.(check (result unit string))
    "undefined output: lanes raise the scalar message"
    (Result.map ignore expected)
    (Result.map ignore
       (outcome (fun () -> Avp_vectors.Replay.record xtr ~nets:[| "y" |] [| xvecs |])));
  (* Unequal ternary arm widths: the kernel rejects the design, and the
     scalar recording runs instead. *)
  let usrc =
    {|
module uneq (clk, rst, a, y);
  input clk, rst;
  input [1:0] a;
  output [1:0] y;
  reg [1:0] q; // avp state
  wire [1:0] n;
  // avp clock clk
  // avp reset rst
  // avp free a
  assign n = a[0] ? q + 2'b01 : 1'b0;
  always @(posedge clk) begin
    if (rst) q <= 2'b00;
    else q <= n;
  end
  assign y = q;
endmodule
|}
  in
  let ud = Elab.elaborate (Parser.parse usrc) in
  Alcotest.(check bool) "Sliced.create rejects the design" true
    (Sliced.create ~lanes:2 ud = None);
  let utr = Avp_fsm.Translate.translate ud in
  let uvecs = traces_of_a [ [ 1; 1; 1; 0; 1 ]; [ 3; 2; 1 ] ] in
  let rows = Avp_vectors.Replay.record utr ~nets:[| "y" |] [| uvecs |] in
  Alcotest.(check bool) "rejected design: rows = the scalar recording" true
    (rows.(0) = scalar_record utr ~nets:[| "y" |] uvecs);
  Alcotest.(check int) "rejected design: q counts" 3 rows.(0).(0).(3).(0)

(* ------------------------------------------------------------------ *)
(* Lanes that restart traces while others run                          *)
(* ------------------------------------------------------------------ *)

let replay_nets_agree d sliced ~lane scalar ~what =
  Array.iter
    (fun (net : Elab.enet) ->
      let b = Sliced.get_lane sliced ~lane net.Elab.id in
      let s = Sim.get_id scalar net.Elab.id in
      if not (Bv.equal b s) then
        Alcotest.failf "%s, lane %d: %s = %s but its own replay has %s" what
          lane net.Elab.name (Bv.to_string b) (Bv.to_string s))
    d.Elab.nets

(* On pp at 62 lanes, one-lane slots replay the traces of a segmented
   tour: every lane starts its next trace whenever its own ends, at
   staggered cycles, through [Sliced.reinit ~mask].  Some lanes are
   frozen mid-trace, so their slot moves on at once, and some pin the
   driven output [istall_out] for the rest of their trace, mirrored on
   their replay; the tour's vectors never touch that net.  At reset
   release and after every cycle, every net of every lane must equal a
   fresh interpreter replaying that lane's own trace: a reset
   lane starts from power-on, without the pin or the freeze its
   previous trace left, and the lanes that keep running are not
   perturbed by their neighbours' resets. *)
let test_lane_reset () =
  let tr = Avp_pp.Control_hdl.translate () in
  let d = tr.Avp_fsm.Translate.elab in
  let graph = Avp_enum.State_graph.enumerate tr.Avp_fsm.Translate.model in
  let tours = Avp_tour.Tour_gen.generate ~instr_limit:100 graph in
  (* Three rounds of the tour's 52 traces, so that every lane restarts.
     In the last round some cycles also release the free input [d_hit]
     after forcing it (it keeps the forced value, having no driver) or
     release the pinned [istall_out] (its driver takes over). *)
  let vectors =
    let v = Avp_vectors.Replay.vectors tr tours in
    let release t =
      Array.mapi
        (fun i (c : Avp_vectors.Vector.cycle) ->
          let extra =
            match (t + i) mod 4 with
            | 1 -> [ Avp_vectors.Vector.Release "d_hit" ]
            | 3 -> [ Avp_vectors.Vector.Release "istall_out" ]
            | _ -> []
          in
          { Avp_vectors.Vector.actions = c.Avp_vectors.Vector.actions @ extra })
        v.(t)
    in
    Array.concat [ v; v; Array.init (Array.length v) release ]
  in
  let n = Array.length vectors in
  let sim =
    match Sliced.create ~lanes:Sl.lanes_limit d with
    | Some s -> s
    | None -> Alcotest.fail "sliced engine rejected the control design"
  in
  let clock = tr.Avp_fsm.Translate.clock in
  let pin = "istall_out" and one = Bv.of_int ~width:1 1 in
  let replays = Array.make n None in
  let starts = Array.make n (-1) and step = ref 0 in
  let pinned = ref 0 and frozen = ref 0 in
  let check ~slot t ~what =
    replay_nets_agree d sim ~lane:slot (Option.get replays.(t))
      ~what:(Printf.sprintf "trace %d %s" t what)
  in
  Avp_vectors.Slots.run sim tr ~width:1 vectors
    ~on_step:(fun () -> incr step)
    ~on_reset:(fun ~slot t ->
      starts.(t) <- !step;
      let s = Sim.create d in
      Sim.set s tr.Avp_fsm.Translate.reset one;
      Sim.step s clock;
      Sim.set s tr.Avp_fsm.Translate.reset (Bv.of_int ~width:1 0);
      replays.(t) <- Some s;
      check ~slot t ~what:"at reset release")
    ~on_cycle:(fun ~slot t i ->
      let s = Option.get replays.(t) in
      List.iter
        (function
          | Avp_vectors.Vector.Force (n, v) -> Sim.force s n v
          | Avp_vectors.Vector.Release n -> Sim.release s n)
        vectors.(t).(i).Avp_vectors.Vector.actions;
      Sim.step s clock;
      check ~slot t ~what:(Printf.sprintf "cycle %d" i);
      if t mod 3 = 1 && i = 2 * (t mod 7) then begin
        incr frozen;
        Sliced.freeze sim ~mask:(1 lsl slot)
      end
      else if t mod 2 = 0 && i = t mod 11 then begin
        incr pinned;
        Sliced.force_id ~mask:(1 lsl slot) sim (Elab.net_id d pin) one;
        Sim.force s pin one
      end);
  Alcotest.(check bool) "every trace replayed" true
    (Array.for_all (fun r -> r <> None) replays);
  let restarts =
    List.sort_uniq compare
      (List.filter (fun st -> st > 1) (Array.to_list starts))
  in
  Alcotest.(check bool) "lanes restart at staggered steps" true
    (List.length restarts > 20);
  Alcotest.(check bool) "lanes reset after a pin and after a freeze" true
    (!pinned > 0 && !frozen > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitwise;
    QCheck_alcotest.to_alcotest prop_relational;
    QCheck_alcotest.to_alcotest prop_unary;
    QCheck_alcotest.to_alcotest prop_logical;
    QCheck_alcotest.to_alcotest prop_mux;
    QCheck_alcotest.to_alcotest prop_structural;
    QCheck_alcotest.to_alcotest prop_index;
    QCheck_alcotest.to_alcotest prop_merge;
    Alcotest.test_case "control design: sliced vs per-lane interpreter" `Quick
      test_engine_differential;
    Alcotest.test_case "mutant schemata: each lane tracks its mutant" `Quick
      test_schemata_differential;
    Alcotest.test_case "one-lane kernel tracks the interpreter" `Quick
      test_one_lane_sliced;
    Alcotest.test_case "detect: schemata passes = scalar replays" `Quick
      test_detect_engines;
    Alcotest.test_case "poke_ints and get_ints = get_lane" `Quick
      test_lane_ints;
    Alcotest.test_case "per-lane reset: each lane = its own replay" `Quick
      test_lane_reset;
    Alcotest.test_case "record on lanes = scalar recording" `Quick
      test_record_lanes;
  ]
