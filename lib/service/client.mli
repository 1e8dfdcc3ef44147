(** Client side of the daemon's newline-delimited JSON protocol over a
    Unix-domain socket.

    Every request is one JSON object on one line; the daemon answers
    with one or more JSON lines, the last of which is {e terminal}
    (type [result], [overloaded], [degraded], [draining], [stopping],
    [status], [cache-gc] or [error]). A blocking [submit] first
    receives an [accepted] line (carrying the job id) and then waits
    for the [result].

    All writes are SIGPIPE-hardened: the signal is ignored and [EPIPE]
    / [ECONNRESET] surface as a structured [server-gone] error string,
    never a killed process. *)

type conn

val connect : sock:string -> (conn, string) result
(** Connect to the daemon socket; the error is a structured diagnosis
    (daemon not running, stale socket, permission). Ignores SIGPIPE
    process-wide as a side effect. *)

val close : conn -> unit

val send : conn -> Json.t -> (unit, string) result
(** Send one request line. *)

val recv : ?timeout_s:float -> conn -> (Json.t, string) result
(** Receive one response line (default timeout 300 s). Structured
    errors on timeout, EOF ([server-gone]) and malformed JSON. *)

val request : sock:string -> ?timeout_s:float -> Json.t -> (Json.t, string) result
(** One-shot: connect, send, read a single response, close. *)

(** Convenience wrappers used by [verify_client] and the bench. *)

val submit :
  sock:string ->
  ?wait:bool ->
  ?timeout_s:float ->
  Job.spec ->
  (Json.t, string) result
(** Submit a job. With [wait] (default true) returns the terminal
    response — a [result], a structured refusal ([overloaded] /
    [degraded] / [draining]), or an [error] (a malformed job, or a point
    axis absent at the order); with [wait:false] returns the immediate
    admission response ([accepted] or a refusal) without waiting for
    the verdict. *)

val submit_with_retries :
  sock:string ->
  ?wait:bool ->
  ?timeout_s:float ->
  ?retries:int ->
  ?retry_base_s:float ->
  Job.spec ->
  (Json.t, string) result
(** {!submit} wrapped in a bounded retry ladder: structured refusals
    ([overloaded] / [degraded] / [draining]) are retried after the
    larger of their [retry_after_s] hint and a jittered exponential
    backoff step (base [retry_base_s], default 0.5 s, doubling, capped,
    jitter keyed on the job's cell fingerprint); connection-level failures
    retry on the ladder alone. After [retries] (default 0) extra
    attempts the last response or error is returned as-is. *)

val status : sock:string -> ?timeout_s:float -> unit -> (Json.t, string) result
val cache_gc : sock:string -> ?timeout_s:float -> max_mb:int -> unit -> (Json.t, string) result
val stop : sock:string -> ?timeout_s:float -> unit -> (Json.t, string) result
(** Ask the daemon to drain gracefully (same as SIGTERM). *)
