type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received but not yet consumed as lines *)
}

let diag ~kind fmt =
  Printf.ksprintf
    (fun msg -> Json.(to_string (Obj [ ("error", Str kind); ("message", Str msg) ])))
    fmt

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let connect ~sock =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Ok { fd; buf = Buffer.create 256 }
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (diag ~kind:"connect-failed" "cannot reach daemon at %s: %s" sock
           (Unix.error_message err))

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c v =
  let line = Json.to_string v ^ "\n" in
  let n = String.length line in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write_substring c.fd line off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Error (diag ~kind:"server-gone" "daemon closed the connection mid-request")
      | exception Unix.Unix_error (err, _, _) ->
          Error (diag ~kind:"io-error" "socket write failed: %s" (Unix.error_message err))
  in
  go 0

(* Pull one complete line out of the receive buffer, reading more bytes
   as needed. The buffer persists across calls so pipelined responses
   are not lost. *)
let recv ?(timeout_s = 300.0) c =
  let chunk = Bytes.create 4096 in
  let take_line () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match take_line () with
    | Some line -> (
        match Json.parse line with
        | Ok v -> Ok v
        | Error why ->
            Error (diag ~kind:"bad-response" "unparseable response line: %s" why))
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then
          Error (diag ~kind:"timeout" "no response within %.0fs" timeout_s)
        else (
          match Unix.select [ c.fd ] [] [] (Float.min left 1.0) with
          | [], _, _ -> go ()
          | _ -> (
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  Error
                    (diag ~kind:"server-gone"
                       "daemon closed the connection before answering")
              | n ->
                  Buffer.add_subbytes c.buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                  Error (diag ~kind:"server-gone" "connection reset by daemon")
              | exception Unix.Unix_error (err, _, _) ->
                  Error
                    (diag ~kind:"io-error" "socket read failed: %s"
                       (Unix.error_message err)))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let request ~sock ?timeout_s v =
  match connect ~sock with
  | Error e -> Error e
  | Ok c ->
      let r = Result.bind (send c v) (fun () -> recv ?timeout_s c) in
      close c;
      r

(* The one client retry loop: an attempt returns its result and, when
   it should be retried, the server's [retry_after_s] hint. Between
   attempts the client sleeps the larger of the hint and the jittered
   backoff step, at most [retries] times. *)
let with_retries ~retries ~policy ~key attempt =
  let rec go n =
    match attempt () with
    | _, Some hint when n <= retries ->
        Unix.sleepf (Float.max hint (Resilient.Backoff.backoff_s policy ~key ~attempt:n));
        go (n + 1)
    | r, _ -> r
  in
  go 1

let terminal_types = [ "result"; "overloaded"; "degraded"; "draining"; "error" ]
let refusal_types = [ "overloaded"; "degraded"; "draining" ]

let submit ~sock ?(wait = true) ?timeout_s ?(retries = 0) ?(retry_base_s = 0.5) spec =
  let cell = Job.of_spec spec in
  let req =
    Json.Obj
      [
        ("cmd", Json.Str "submit");
        ("wait", Json.Bool wait);
        ("cell", Json.Str (Job.cell_to_line cell));
      ]
  in
  let once () =
    match connect ~sock with
    | Error e -> Error e
    | Ok c ->
        let rec await () =
          match recv ?timeout_s c with
          | Error e -> Error e
          | Ok v -> (
              match Json.mem_str "type" v with
              | Some t when List.mem t terminal_types -> Ok v
              | Some "accepted" when not wait -> Ok v
              | Some _ -> await ()
              | None -> Error (diag ~kind:"bad-response" "response without a type"))
        in
        let r = Result.bind (send c req) await in
        close c;
        r
  in
  (* Structured refusals are retried after their hint; connection-level
     failures (daemon restarting, socket not yet bound) on the backoff
     ladder alone. *)
  let policy = { Resilient.Backoff.default_policy with Resilient.Backoff.base_s = retry_base_s } in
  with_retries ~retries ~policy ~key:(Job.fingerprint cell) (fun () ->
      let r = once () in
      match r with
      | Ok v -> (
          match Json.mem_str "type" v with
          | Some t when List.mem t refusal_types ->
              (r, Some (Option.value (Json.mem_num "retry_after_s" v) ~default:0.0))
          | _ -> (r, None))
      | Error _ -> (r, Some 0.0))

let bulk ~sock ?(retries = 10) ?(timeout_s = 600.0) cells ~answer =
  (* One cell per fingerprint, in first-seen order. *)
  let answered = Hashtbl.create 16 in
  let cells =
    List.filter_map
      (fun c ->
        let fp = Job.fingerprint c in
        if Hashtbl.mem answered fp then None
        else (
          Hashtbl.replace answered fp false;
          Some (fp, c)))
      cells
  in
  let remaining () = List.filter (fun (fp, _) -> not (Hashtbl.find answered fp)) cells in
  let fatal = ref None in
  (* One connection: send [todo], drain answers until every cell not
     deferred is in. Returns the largest deferral hint seen. *)
  let round todo =
    match connect ~sock with
    | Error _ -> 0.0
    | Ok conn ->
        let hint = ref 0.0 in
        let waiting = ref (List.map fst todo) in
        let rec drain () =
          if !waiting <> [] then
            match recv ~timeout_s conn with
            | Error _ -> ()
            | Ok v -> (
                match Json.mem_str "type" v with
                | Some "cell-result" ->
                    Option.iter
                      (fun fp ->
                        (match
                           Option.bind (Json.member "probe" v) (fun p ->
                               Result.to_option (Bulk.probe_of_json p))
                         with
                        | Some p when Hashtbl.find_opt answered fp = Some false ->
                            Hashtbl.replace answered fp true;
                            answer fp (Ok p)
                        | _ -> ());
                        waiting := List.filter (fun f -> f <> fp) !waiting)
                      (Json.mem_str "fp" v);
                    drain ()
                | Some "bulk-accepted" ->
                    let deferred =
                      match Json.member "deferred" v with Some (Json.Arr l) -> l | _ -> []
                    in
                    List.iter
                      (fun d ->
                        Option.iter (fun r -> hint := Float.max !hint r)
                          (Json.mem_num "retry_after_s" d))
                      deferred;
                    let ids = List.filter_map (Json.mem_str "cell_id") deferred in
                    waiting :=
                      List.filter
                        (fun f ->
                          not
                            (List.exists
                               (fun (fp, c) -> fp = f && List.mem c.Job.cell_id ids)
                               todo))
                        !waiting;
                    drain ()
                | Some "error" ->
                    fatal :=
                      Some
                        (Option.value (Json.mem_str "message" v)
                           ~default:"daemon rejected the bulk request")
                | _ -> drain ())
        in
        let req =
          Json.Obj
            [
              ("cmd", Json.Str "bulk");
              ("cells", Json.Arr (List.map (fun (_, c) -> Json.Str (Job.cell_to_line c)) todo));
            ]
        in
        Fun.protect ~finally:(fun () -> close conn) (fun () ->
            Result.iter drain (send conn req));
        !hint
  in
  let policy = { Resilient.Backoff.base_s = 0.5; max_s = 5.0 } in
  with_retries ~retries ~policy ~key:"bulk" (fun () ->
      match remaining () with
      | [] -> ((), None)
      | todo ->
          let hint = round todo in
          ((), if !fatal = None && remaining () <> [] then Some hint else None));
  let why = Option.value !fatal ~default:"daemon unreachable: bulk retry budget exhausted" in
  List.iter (fun (fp, _) -> answer fp (Error why)) (remaining ())

let simple ~sock ?timeout_s fields =
  request ~sock ?timeout_s (Json.Obj fields)

let status ~sock ?timeout_s () = simple ~sock ?timeout_s [ ("cmd", Json.Str "status") ]

let cache_gc ~sock ?timeout_s ~max_mb () =
  simple ~sock ?timeout_s
    [ ("cmd", Json.Str "cache-gc"); ("max_mb", Json.Num (float_of_int max_mb)) ]

let stop ~sock ?timeout_s () = simple ~sock ?timeout_s [ ("cmd", Json.Str "stop") ]
