type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received but not yet consumed as lines *)
}

let diag ~kind fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.sprintf "{\"error\":\"%s\",\"message\":\"%s\"}" kind (Json.escape msg))
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

let terminal_types = [ "result"; "overloaded"; "degraded"; "draining"; "error" ]

let submit ~sock ?(wait = true) ?timeout_s spec =
  match connect ~sock with
  | Error e -> Error e
  | Ok c ->
      let req =
        Json.Obj
          [
            ("cmd", Json.Str "submit");
            ("wait", Json.Bool wait);
            ("job", Job.spec_to_json spec);
          ]
      in
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
      let r = Result.bind (send c req) (fun () -> await ()) in
      close c;
      r

(* Client-side resilience: bounded retries with jittered exponential
   backoff. Structured refusals carry a [retry_after_s] hint, which we
   honour (sleeping the larger of the hint and the backoff step);
   connection-level failures (daemon restarting, socket not yet bound)
   back off on the ladder alone. *)
let refusal_types = [ "overloaded"; "degraded"; "draining" ]

let submit_with_retries ~sock ?wait ?timeout_s ?(retries = 0)
    ?(retry_base_s = 0.5) spec =
  let key = Bulk.fingerprint (Bulk.of_spec spec) in
  let policy = { Resilient.Backoff.default_policy with Resilient.Backoff.base_s = retry_base_s } in
  let rec go attempt =
    let r = submit ~sock ?wait ?timeout_s spec in
    let retry_hint =
      match r with
      | Ok v -> (
          match Json.mem_str "type" v with
          | Some t when List.mem t refusal_types ->
              Some (Option.value (Json.mem_num "retry_after_s" v) ~default:0.0)
          | _ -> None)
      | Error _ -> Some 0.0
    in
    match retry_hint with
    | None -> r
    | Some hint ->
        if attempt > retries then r
        else begin
          let d =
            Float.max hint (Resilient.Backoff.backoff_s policy ~key ~attempt)
          in
          Unix.sleepf d;
          go (attempt + 1)
        end
  in
  go 1

let simple ~sock ?timeout_s fields =
  request ~sock ?timeout_s (Json.Obj fields)

let status ~sock ?timeout_s () = simple ~sock ?timeout_s [ ("cmd", Json.Str "status") ]

let cache_gc ~sock ?timeout_s ~max_mb () =
  simple ~sock ?timeout_s
    [ ("cmd", Json.Str "cache-gc"); ("max_mb", Json.Num (float_of_int max_mb)) ]

let stop ~sock ?timeout_s () = simple ~sock ?timeout_s [ ("cmd", Json.Str "stop") ]
