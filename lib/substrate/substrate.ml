(* Durable run-directory state, fault-plan tokens and JSON string
   escaping: the one copy of each, shared by the journal, the atlas
   ledger, the job queue, the four fault layers and every hand-built
   JSON diagnosis. *)

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
  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
end
