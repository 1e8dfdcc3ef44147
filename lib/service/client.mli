(** Client side of the daemon's newline-delimited JSON protocol over a
    Unix-domain socket.

    Every request is one JSON object on one line; the daemon answers
    with one or more JSON lines, the last of which is {e terminal}
    (type [result], [overloaded], [degraded], [draining], [stopping],
    [status], [cache-gc] or [error]). A blocking [submit] first
    receives an [accepted] line (carrying the job id) and then waits
    for the [result]; a [bulk] request is answered by [bulk-accepted]
    and one streamed [cell-result] per cell. A job travels in one
    encoding, its canonical {!Job.cell_to_line} cell line, whether it is a
    submitted point or a sweep cell. This is the only client of the
    protocol: [verify_client] and the atlas's daemon backend call it.

    All writes are SIGPIPE-hardened: the signal is ignored and [EPIPE]
    / [ECONNRESET] surface as a structured [server-gone] error string,
    never a killed process. *)

(** Both calls that carry cells run one retry loop: between attempts the
    client sleeps the larger of the daemon's [retry_after_s] hint and a
    jittered exponential backoff step ({!Resilient.Backoff}). *)

val submit :
  sock:string ->
  ?wait:bool ->
  ?timeout_s:float ->
  ?retries:int ->
  ?retry_base_s:float ->
  Job.spec ->
  (Json.t, string) result
(** Submit a point as the canonical line of the one-cell job
    {!Job.of_spec} makes of it. With [wait] (default true) returns the
    terminal response — a [result], a structured refusal ([overloaded] /
    [degraded] / [draining]), or an [error] (a malformed cell, or a point
    axis absent at the order); with [wait:false] returns the immediate
    admission response ([accepted] or a refusal) without waiting for
    the verdict. Refusals and connection-level failures are retried
    [retries] (default 0) extra times (backoff base [retry_base_s],
    default 0.5 s, jitter keyed on the cell fingerprint); after that the
    last response or error is returned as-is. *)

val bulk :
  sock:string ->
  ?retries:int ->
  ?timeout_s:float ->
  Job.cell_spec list ->
  answer:(string -> (Bulk.probe, string) result -> unit) ->
  unit
(** Run cells through the daemon as [bulk] requests and call [answer]
    exactly once per distinct {!Job.fingerprint}: with [Ok] as its
    [cell-result] streams in, or with [Error] when the daemon rejects the
    request or [retries] (default 10) extra rounds pass without an
    answer. Each round ships the unanswered cells over one connection;
    cells the daemon defers, and everything after a lost connection (a
    daemon restart), go out again after the backoff (base 0.5 s, cap
    5 s, jitter key ["bulk"]). [timeout_s] (default 600 s) bounds the
    wait for each response line. *)

val status : sock:string -> ?timeout_s:float -> unit -> (Json.t, string) result
val cache_gc : sock:string -> ?timeout_s:float -> max_mb:int -> unit -> (Json.t, string) result
val stop : sock:string -> ?timeout_s:float -> unit -> (Json.t, string) result
(** Ask the daemon to drain gracefully (same as SIGTERM). *)
