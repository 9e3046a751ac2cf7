type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.17g round-trips every finite float through [float_of_string];
   integral values print without an exponent so they stay readable.
   JSON has no spelling for nan/infinity, so those collapse to 0. *)
let float_string f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        print buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        print buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

(* Indented printing for committed artifacts that humans diff. *)
let rec print_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> print buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        print_pretty buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        print_pretty buf (indent + 2) v)
      kvs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  print_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.sub c.s c.pos n = word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then error c "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if c.pos >= String.length c.s then error c "unterminated escape";
       let e = c.s.[c.pos] in
       c.pos <- c.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if c.pos + 4 > String.length c.s then error c "bad \\u escape";
         let hex = String.sub c.s c.pos 4 in
         c.pos <- c.pos + 4;
         (match int_of_string_opt ("0x" ^ hex) with
          | None -> error c "bad \\u escape"
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some code when code < 0x800 ->
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          | Some code ->
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
       | _ -> error c "bad escape");
      go ()
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let lexeme = String.sub c.s start (c.pos - start) in
  if String.contains lexeme '.' || String.contains lexeme 'e'
     || String.contains lexeme 'E'
  then
    match float_of_string_opt lexeme with
    | Some f -> Float f
    | None -> error c "bad number"
  else
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lexeme with
      | Some f -> Float f
      | None -> error c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> error c "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> error c "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some _ -> parse_number c

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing characters"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
