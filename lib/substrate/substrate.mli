(** The durable-state and fault-plan substrate shared by every layer that
    keeps a run directory: the solve journal ({!Supervise}), the atlas
    ledger ({!Atlas}) and the daemon's job queue ([Service.Jobqueue]) all
    persist through {!Fs} and {!Wal}, every [--fault-plan] string is
    tokenized by {!Fault_plan}, and every JSON document is a {!Json.t}
    printed by {!Json.to_string}. Callers own only their record codecs
    and the typed meaning of their fault kinds. *)

(** Whole-file helpers. *)
module Fs : sig
  val mkdir_p : string -> unit
  (** Create a directory and its missing parents; an existing one is fine. *)

  val fsync_dir : string -> unit
  (** fsync a directory so a just-created or just-renamed entry survives
      power loss. Best-effort: a filesystem that refuses directory fsync
      is silently tolerated. *)

  val write_atomic : string -> string -> unit
  (** [write_atomic path contents] writes [<path>.tmp.<pid>], fsyncs it,
      renames it over [path] and fsyncs the directory, so a reader sees
      either the old file or the complete new one. Raises [Unix_error] on
      failure (the temp file is removed first). *)

  val read_file : string -> string
  (** Whole file. Raises [Sys_error] when missing or unreadable. *)
end

(** An append-only line log with a magic header line: the write-ahead
    record behind [journal.log], [ledger.log] and [queue.log].

    {b fsync policy.} {!open_} and {!append} raise [Unix.Unix_error] when
    a write or an [fsync] fails: a record the caller goes on to act upon
    is on disk, or the caller hears about it. Only the directory fsync
    after creating the file is best-effort ({!Fs.fsync_dir}). *)
module Wal : sig
  type t

  val open_ : magic:string -> string -> t
  (** Open [path] for appends ([O_APPEND]), creating it. The magic line
      is written only when the file is empty. A torn final line — a crash
      mid-append — is cut off first, so the next record starts on a line
      of its own instead of being glued to the fragment; this assumes no
      other process is half-way through an append at that instant. *)

  val append : t -> string -> unit
  (** Append one record: [line ^ "\n"] in a single [write] (no channel
      buffer, no reopen), then [fsync]. [line] must not contain a
      newline. *)

  val close : t -> unit

  type replay = {
    records : (int * string) list;
        (** record lines in file order with their 1-based line numbers;
            blank lines and magic lines are skipped *)
    diags : string list;
        (** one diagnosis per unusable stretch: an unreadable file, or a
            final line without its terminating newline (a torn write,
            never returned as a record) *)
  }

  val replay : magic:string -> string -> replay
  (** Tolerant read of the log at [path]; never raises. A missing file
      has no records and no diagnoses. *)

  val diagnosis : string -> int * string -> string -> string
  (** [diagnosis path (lineno, line) why] renders a codec's rejection of
      a record line in the same format {!replay} uses. *)

  val rewrite : magic:string -> string -> string list -> unit
  (** Compaction: atomically replace the log with the magic line and
      [lines] ({!Fs.write_atomic}). A crash mid-rewrite keeps the old
      log. *)
end

(** The one fault-plan grammar. A plan is comma-separated tokens of the
    form [[SCOPE/]kind[@key[:arg]*]]; [""] and ["none"] are the empty
    plan and blank tokens are ignored. The grammar only splits: what a
    kind means, and whether a token is well formed for it, is decided by
    the layer that claims it ([Resilient.Faults], [Atlas.Fault],
    [Service.Daemon.Fault]). *)
module Fault_plan : sig
  type token = {
    scope : string option;  (** [SCOPE/] prefix (an atlas cell id) *)
    kind : string;
    key : string option;  (** text after ['@'] up to the first [':'] *)
    args : string list;  (** the [':']-separated rest *)
  }

  val parse : string -> (token list, string) result
  (** Rejects an empty scope, an empty scoped token and an empty kind. *)

  val claim_all : (token -> ('a, string) result) -> string -> ('a list, string) result
  (** {!parse}, then every token through one layer's claim function;
      the first refusal is the error. *)

  val token_to_string : token -> string
  (** Inverse of {!parse} on one token. *)

  val to_string : token list -> string
  (** ["none"] for the empty plan. *)

  val site : token -> string option
  (** [key] and [args] rejoined with [':'] — the verbatim text after
      ['@'], for kinds whose key is an opaque id. *)
end

(** The one JSON codec: every JSON document the program writes (run
    directory refusals, [report.json], [atlas.json], quarantine and
    dead-letter records, the daemon's wire protocol) is a {!t} printed
    by {!to_string}.

    Numbers are OCaml floats. Printing is compact and deterministic:
    integers within [2^53] print bare, other finite numbers with the
    fewer of 12 or 17 significant digits that reads back exactly, and
    NaN, +∞ and −∞ as the strings ["nan"], ["inf"] and ["-inf"], which
    {!parse} reads back as {!Str}. Strings escape the double quote, the
    backslash and control characters; other bytes, UTF-8 included,
    print as they are. Object member order is kept on print and parse;
    duplicate keys keep the first binding on lookup. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val int : int -> t
  (** [Num] of an integer. *)

  val parse : string -> (t, string) result
  (** One JSON document; trailing garbage after it is an error. Never
      raises. [parse (to_string v) = Ok v] for every [v] whose numbers
      are finite. *)

  (** Accessors; [None] on shape mismatch. *)

  val member : string -> t -> t option
  val str : t -> string option
  val num : t -> float option
  val bool : t -> bool option
  val arr : t -> t list option
  val obj : t -> (string * t) list option
  val mem_str : string -> t -> string option
  val mem_num : string -> t -> float option
  val mem_bool : string -> t -> bool option
end
