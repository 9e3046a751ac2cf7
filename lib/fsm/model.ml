type var = { name : string; values : string array }

let var name values =
  if Array.length values = 0 then
    invalid_arg (Printf.sprintf "variable %s has an empty domain" name);
  { name; values }

let bool_var name = var name [| "0"; "1" |]
let card v = Array.length v.values

(* Bits needed to encode a domain of the given cardinality. *)
let bits_for n =
  if n <= 1 then 1
  else
    let rec loop bits cap = if cap >= n then bits else loop (bits + 1) (cap * 2) in
    loop 1 2

type t = {
  model_name : string;
  state_vars : var array;
  choice_vars : var array;
  reset : int array;
  next : int array -> int array -> int array;
  next_into : int array -> (int -> int) -> int array -> unit;
}

let create ?next_into ~name ~state_vars ~choice_vars ~reset ~next () =
  let state_vars = Array.of_list state_vars in
  let choice_vars = Array.of_list choice_vars in
  let reset = Array.of_list reset in
  if Array.length reset <> Array.length state_vars then
    invalid_arg "Model.create: reset length mismatch";
  Array.iteri
    (fun i v ->
      if reset.(i) < 0 || reset.(i) >= card v then
        invalid_arg
          (Printf.sprintf "Model.create: reset value for %s out of range"
             v.name))
    state_vars;
  let next_into =
    match next_into with
    | Some f -> f
    | None ->
      let nchoices = Array.length choice_vars in
      fun cur read dst ->
        let r = next cur (Array.init nchoices read) in
        Array.blit r 0 dst 0 (Array.length r)
  in
  { model_name = name; state_vars; choice_vars; reset; next; next_into }

let state_bits t =
  Array.fold_left (fun acc v -> acc + bits_for (card v)) 0 t.state_vars

let num_states_upper_bound t =
  Array.fold_left (fun acc v -> acc *. float_of_int (card v)) 1. t.state_vars

let num_choices t =
  Array.fold_left (fun acc v -> acc * card v) 1 t.choice_vars

let choice_of_index t idx =
  let n = Array.length t.choice_vars in
  let out = Array.make n 0 in
  let rem = ref idx in
  for i = n - 1 downto 0 do
    let c = card t.choice_vars.(i) in
    out.(i) <- !rem mod c;
    rem := !rem / c
  done;
  out

let index_of_choice t choice =
  let acc = ref 0 in
  Array.iteri
    (fun i v -> acc := (!acc * card t.choice_vars.(i)) + v)
    choice;
  !acc

let pp_valuation vars ppf valuation =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf i ->
      Format.fprintf ppf "%s=%s" vars.(i).name
        vars.(i).values.(valuation.(i)))
    ppf
    (List.init (Array.length vars) Fun.id)

let pp_state t ppf s = pp_valuation t.state_vars ppf s
let pp_choice t ppf c = pp_valuation t.choice_vars ppf c

let validate t =
  let check_valuation vars valuation what =
    if Array.length valuation <> Array.length vars then
      Error (Printf.sprintf "%s has wrong arity" what)
    else begin
      let bad = ref None in
      Array.iteri
        (fun i v ->
          if !bad = None && (v < 0 || v >= card vars.(i)) then
            bad :=
              Some
                (Printf.sprintf "%s assigns %d to %s (card %d)" what v
                   vars.(i).name (card vars.(i))))
        valuation;
      match !bad with None -> Ok () | Some m -> Error m
    end
  in
  match check_valuation t.state_vars t.reset "reset" with
  | Error _ as e -> e
  | Ok () ->
    let n = num_choices t in
    let rec loop i =
      if i >= n then Ok ()
      else
        let s = t.next t.reset (choice_of_index t i) in
        match check_valuation t.state_vars s "next(reset)" with
        | Error _ as e -> e
        | Ok () -> loop (i + 1)
    in
    loop 0

(* Shadowed by [Builder.create] below. *)
let model_create = create

module Builder = struct
  type svar = int
  type cvar = int

  type b = {
    b_name : string;
    mutable b_state : var list;  (* reverse *)
    mutable b_reset : int list;  (* reverse *)
    mutable b_nstate : int;
    mutable b_choice : var list;  (* reverse *)
    mutable b_nchoice : int;
  }

  let create b_name =
    { b_name; b_state = []; b_reset = []; b_nstate = 0; b_choice = [];
      b_nchoice = 0 }

  let state b name ?(init = 0) values =
    let v = var name values in
    if init < 0 || init >= card v then
      invalid_arg (Printf.sprintf "Builder.state: init for %s out of range"
                     name);
    b.b_state <- v :: b.b_state;
    b.b_reset <- init :: b.b_reset;
    let idx = b.b_nstate in
    b.b_nstate <- idx + 1;
    idx

  let state_bool b name ?(init = 0) () = state b name ~init [| "0"; "1" |]

  let choice b name values =
    let v = var name values in
    b.b_choice <- v :: b.b_choice;
    let idx = b.b_nchoice in
    b.b_nchoice <- idx + 1;
    idx

  let choice_bool b name = choice b name [| "0"; "1" |]

  type ctx = {
    mutable cur : int array;
    mutable read : int -> int;
    mutable nxt : int array;
    assigned : bool array;
    vars : var array;
  }

  let get ctx sv = ctx.cur.(sv)
  let chosen ctx cv = ctx.read cv

  let set ctx sv value =
    if ctx.assigned.(sv) then
      invalid_arg
        (Printf.sprintf "Builder.set: %s assigned twice in one step"
           ctx.vars.(sv).name);
    if value < 0 || value >= card ctx.vars.(sv) then
      invalid_arg
        (Printf.sprintf "Builder.set: %s assigned out-of-range value %d"
           ctx.vars.(sv).name value);
    ctx.assigned.(sv) <- true;
    ctx.nxt.(sv) <- value

  let build b ~step =
    let vars = Array.of_list (List.rev b.b_state) in
    let nvars = Array.length vars in
    (* One reusable ctx per built model: the enumerator calls
       [next_into] millions of times, and the scratch must not be
       re-allocated per step. *)
    let ctx =
      { cur = [||]; read = Fun.id; nxt = [||];
        assigned = Array.make nvars false; vars }
    in
    let next_into cur read dst =
      ctx.cur <- cur;
      ctx.read <- read;
      ctx.nxt <- dst;
      Array.fill ctx.assigned 0 nvars false;
      Array.blit cur 0 dst 0 nvars;
      step ctx
    in
    let next cur choices =
      let dst = Array.make nvars 0 in
      next_into cur (Array.get choices) dst;
      dst
    in
    model_create ~name:b.b_name
      ~state_vars:(List.rev b.b_state)
      ~choice_vars:(List.rev b.b_choice)
      ~reset:(List.rev b.b_reset)
      ~next ~next_into ()
end
