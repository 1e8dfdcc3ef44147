(** The daemon's crash-safe durable job queue: an fsync'd append-only
    ledger ([queue.log] in the run directory, a {!Substrate.Wal}) that
    records every job admission and state change, replayed on restart.

    Ledger format (line-oriented, write-ahead — each line fsync'd before
    the daemon acts on it):

    {v
    pll-queue v1
    seq <next-seq>
    submit <id> <fingerprint> <canonical cell line (with budget)>
    start <id>
    done <id> <verdict>
    cancel <id>
    v}

    Last event per id wins. On {!open_}, the surviving ledger is
    compacted: terminal jobs (done/cancelled) are dropped — their
    results live in the daemon's per-fingerprint result store — and
    non-terminal jobs (pending, or running when the daemon was killed)
    are rewritten as fresh [submit] lines and returned as {e recovered}
    entries for re-dispatch; their solves replay from the content-
    addressed solve cache, so recovery costs zero re-solves for
    anything that completed. The [seq] high-water line keeps job ids
    unique across restarts. Malformed lines and a torn final line (the
    crash) are skipped with a diagnosis, never a raise. An append whose
    write or fsync fails raises.

    Every job is one {!Job.cell_spec}, ledgered as its cell line; the
    fingerprint is recomputed from the cell on replay. A complete
    [submit] line whose cell does not read (a [pll-job v1] point line
    from a daemon that queued points as a second job kind, say) holds a
    job that cannot be recovered, so {!open_} refuses the ledger rather
    than compact the job away. *)

type state =
  | Pending
  | Running
  | Done of Job.verdict
  | Cancelled

type entry = {
  id : string;  (** [j<seq>], unique across restarts of one run dir *)
  fp : string;  (** {!Job.fingerprint} of the cell *)
  cell : Job.cell_spec;
  mutable state : state;
}

type t

val path : string -> string
(** Ledger file path for a run directory. *)

val open_ :
  dir:string -> (t * entry list * string list, string) result
(** Open (creating if absent) the queue of a run directory: replays and
    compacts the ledger, then reopens it for fsync'd appends. Returns
    the recovered non-terminal entries (now pending, in original submit
    order) and one diagnosis per malformed line. A complete [submit]
    line whose cell does not read is refused before anything is
    written: [Error] with the JSON diagnosis
    [{"error":"queue-unreadable","ledger":…,"line":N,"text":…,"detail":…,"hint":…}],
    the ledger left byte for byte. *)

val ledger : Supervise.ledger
(** The queue ledger as the daemon's record of work: its job lines on
    record, terminal or not, and its unreadable lines (the [seq]
    high-water line is not counted, so a lifetime that admitted no job
    leaves nothing on record). The daemon refuses a directory whose
    ledger holds any without [--resume] ([queue-not-resumed]). *)

val submit : t -> Job.cell_spec -> entry
(** Admit a job: assign the next id, ledger the [submit] line (fsync'd)
    and return the pending entry. *)

val start : t -> entry -> unit
val finish : t -> entry -> Job.verdict -> unit
val cancel : t -> entry -> unit

val close : t -> unit
