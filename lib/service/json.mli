(** A minimal JSON value type, parser and printer for the daemon's
    newline-delimited wire protocol. No external dependency: the repo
    already hand-prints JSON diagnoses everywhere; this module adds the
    one thing those call sites never needed — parsing — so the daemon
    and client can exchange structured requests.

    Restrictions (fine for the protocol, not a general JSON library):
    numbers are OCaml floats; object member order is preserved on parse
    and print; duplicate keys keep the first binding on lookup. Printing
    is deterministic: the same value always renders the same bytes,
    which is what makes stored job results byte-comparable across
    daemon restarts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; trailing garbage after the document is an
    error. Never raises. *)

val to_string : t -> string
(** Compact (no whitespace), deterministic rendering. Integral numbers
    within [2^53] print without a decimal point; other floats print
    with round-trip precision. *)

val escape : string -> string
(** JSON string-escape (no surrounding quotes): {!Substrate.Json.escape}. *)

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
