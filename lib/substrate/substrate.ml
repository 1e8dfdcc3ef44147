(* Durable run-directory state, fault-plan tokens and the JSON codec:
   the one copy of each, shared by the journal, the atlas ledger, the
   job queue, the four fault layers and every JSON document the
   program writes. *)

module Fs = struct
  let rec mkdir_p dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let fsync_dir dir =
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd
    | exception Unix.Unix_error _ -> ()

  (* [Unix.write_substring] loops until every byte is written or raises. *)
  let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

  let write_atomic path contents =
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    (try
       let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           write_all fd contents;
           Unix.fsync fd);
       Unix.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    fsync_dir (Filename.dirname path)

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
end

module Wal = struct
  type t = Unix.file_descr

  let write_line fd line =
    Fs.write_all fd (line ^ "\n");
    Unix.fsync fd

  (* Cut a torn final line back to the last complete one. *)
  let seal_tail fd path size =
    let last = Bytes.create 1 in
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    if Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n' then begin
      let keep =
        match String.rindex_opt (Fs.read_file path) '\n' with
        | Some i -> i + 1
        | None -> 0
      in
      Unix.ftruncate fd keep;
      Unix.fsync fd;
      keep
    end
    else size

  let open_ ~magic path =
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    match
      let size = (Unix.fstat fd).Unix.st_size in
      let size = if size > 0 then seal_tail fd path size else size in
      if size = 0 then begin
        write_line fd magic;
        Fs.fsync_dir (Filename.dirname path)
      end
    with
    | () -> fd
    | exception e ->
        Unix.close fd;
        raise e

  let append = write_line
  let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

  type replay = { records : (int * string) list; diags : string list }

  let diagnosis path (lineno, line) why =
    Printf.sprintf "%s line %d: %s (%S)" (Filename.basename path) lineno why line

  let replay ~magic path =
    if not (Sys.file_exists path) then { records = []; diags = [] }
    else
      match Fs.read_file path with
      | exception Sys_error m ->
          { records = []; diags = [ Printf.sprintf "%s unreadable: %s" path m ] }
      | content ->
          (* split_on_char leaves "" after a final newline; anything else
             in that last slot is a line whose write never completed. *)
          let rec go n records = function
            | [] | [ "" ] -> { records = List.rev records; diags = [] }
            | [ torn ] ->
                {
                  records = List.rev records;
                  diags = [ diagnosis path (n, torn) "torn write, no terminating newline" ];
                }
            | line :: rest ->
                go (n + 1)
                  (if line = "" || line = magic then records else (n, line) :: records)
                  rest
          in
          go 1 [] (String.split_on_char '\n' content)

  let rewrite ~magic path lines =
    Fs.write_atomic path (String.concat "" (List.map (fun l -> l ^ "\n") (magic :: lines)))
end

module Fault_plan = struct
  type token = {
    scope : string option;
    kind : string;
    key : string option;
    args : string list;
  }

  let parse_token tok =
    let fail why = Error (Printf.sprintf "fault %S: %s" tok why) in
    (* A scope is a '/' ahead of any '@': past the '@' it is key text. *)
    let at = Option.value (String.index_opt tok '@') ~default:(String.length tok) in
    let scope, body =
      match String.index_opt tok '/' with
      | Some i when i < at ->
          ( Some (String.trim (String.sub tok 0 i)),
            String.trim (String.sub tok (i + 1) (String.length tok - i - 1)) )
      | _ -> (None, tok)
    in
    if scope = Some "" then fail "expected CELL/token"
    else if body = "" then fail "empty cell-scoped token"
    else
      let kind, key, args =
        match String.index_opt body '@' with
        | None -> (body, None, [])
        | Some i -> (
            match
              String.split_on_char ':' (String.sub body (i + 1) (String.length body - i - 1))
            with
            | key :: args -> (String.sub body 0 i, Some key, args)
            | [] -> (String.sub body 0 i, Some "", []))
      in
      if kind = "" then fail "missing fault kind" else Ok { scope; kind; key; args }

  (* Map [f] over [l], stopping at the first error. *)
  let all f l =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> Result.bind (f x) (fun y -> go (y :: acc) rest)
    in
    go [] l

  let parse s =
    match String.trim s with
    | "" | "none" -> Ok []
    | s ->
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (( <> ) "")
        |> all parse_token

  let claim_all of_token s = Result.bind (parse s) (all of_token)

  let site t = Option.map (fun k -> String.concat ":" (k :: t.args)) t.key

  let token_to_string t =
    (match t.scope with Some s -> s ^ "/" | None -> "")
    ^ t.kind
    ^ match site t with Some s -> "@" ^ s | None -> ""

  let to_string = function
    | [] -> "none"
    | toks -> String.concat "," (List.map token_to_string toks)
end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* ---- printing ---- *)

  (* The one number rule. Integers print bare, other finite numbers
     shortest-first (%.12g when it reads back exactly, %.17g otherwise),
     and the three non-finite values as the strings "nan", "inf" and
     "-inf": JSON has no literal for them, and a bare [inf] would not
     parse. *)
  let num_to_string f =
    if Float.is_nan f then "\"nan\""
    else if f = Float.infinity then "\"inf\""
    else if f = Float.neg_infinity then "\"-inf\""
    else if Float.is_integer f && Float.abs f < 9.007199254740992e15 then
      Printf.sprintf "%.0f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  (* Quotes, backslashes and control characters escaped; every other
     byte, UTF-8 included, as it is. *)
  let add_str b s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s -> add_str b s
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
            add_str b k;
            Buffer.add_char b ':';
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    write b v;
    Buffer.contents b

  let int n = Num (float_of_int n)

  (* ---- parsing: plain recursive descent over the string ---- *)

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
    let expect c = if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c) in
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
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | None -> fail "unterminated escape"
            | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
            | Some 'n' -> Buffer.add_char b '\n'
            | Some 'r' -> Buffer.add_char b '\r'
            | Some 't' -> Buffer.add_char b '\t'
            | Some 'b' -> Buffer.add_char b '\b'
            | Some 'f' -> Buffer.add_char b '\012'
            | Some 'u' ->
                (* A BMP code point, as UTF-8; surrogate pairs are out of
                   scope, and a lone surrogate reads as U+FFFD. *)
                (match
                   if !pos + 4 < n then int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4)
                   else None
                 with
                | Some c ->
                    Buffer.add_utf_8_uchar b (if Uchar.is_valid c then Uchar.of_int c else Uchar.rep)
                | None -> fail "bad \\u escape");
                pos := !pos + 4
            | Some c -> fail (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match float_of_string_opt tok with Some f -> Num f | None -> fail ("bad number " ^ tok)
    in
    (* The items of an array or an object, from its opening bracket on. *)
    let items close item =
      advance ();
      skip_ws ();
      if peek () = Some close then begin
        advance ();
        []
      end
      else
        let rec go acc =
          let v = item () in
          skip_ws ();
          match peek () with
          | Some ',' ->
              advance ();
              go (v :: acc)
          | Some c when c = close ->
              advance ();
              List.rev (v :: acc)
          | _ -> fail (Printf.sprintf "expected , or %c" close)
        in
        go []
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' -> Arr (items ']' parse_value)
      | Some '{' -> Obj (items '}' member)
      | Some _ -> parse_number ()
    and member () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      (k, parse_value ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  (* ---- accessors ---- *)

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
end
