type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ----------------------------------------------------------------- *)
(* Printing *)

let escape = Substrate.Json.escape

(* Deterministic number rendering: integers print bare, everything else
   with enough digits to round-trip. Shortest-first keeps common values
   like 0.5 readable while %.17g guarantees exactness for the rest. *)
let num_to_string f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 9.007199254740992e15 then
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* ----------------------------------------------------------------- *)
(* Parsing: plain recursive descent over the string. *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal (wanted " ^ word ^ ")")
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape"
            else begin
              (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if !pos + 4 >= n then fail "truncated \\u escape";
                  let hex = String.sub s (!pos + 1) 4 in
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> fail "bad \\u escape"
                  in
                  (* Encode the BMP code point as UTF-8; surrogate pairs
                     are out of scope for this protocol. *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end;
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              advance ();
              go ()
            end
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail ("bad number " ^ tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec members acc =
            let kv = member () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ----------------------------------------------------------------- *)
(* Accessors *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool = function Bool b -> Some b | _ -> None
let arr = function Arr xs -> Some xs | _ -> None
let obj = function Obj kvs -> Some kvs | _ -> None
let mem_str k v = Option.bind (member k v) str
let mem_num k v = Option.bind (member k v) num
let mem_bool k v = Option.bind (member k v) bool
