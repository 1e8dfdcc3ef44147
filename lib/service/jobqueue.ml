module Log = (val Logs.src_log (Logs.Src.create "service.queue") : Logs.LOG)

type state = Pending | Running | Done of Job.verdict | Cancelled

type entry = {
  id : string;
  fp : string;
  cell : Job.cell_spec;
  mutable state : state;
}

module Wal = Substrate.Wal

type t = { wal : Wal.t; mutable next_seq : int }

let magic = "pll-queue v1"
let path dir = Filename.concat dir "queue.log"

(* ----------------------------------------------------------------- *)
(* Replay *)

(* First space-separated word and the rest of the line verbatim (the job
   line itself contains spaces). *)
let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let seq_of_id id =
  if String.length id > 1 && id.[0] = 'j' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

(* A complete [submit] line whose cell does not read: the job it held
   cannot be recovered, and compacting it away would lose it, so the
   ledger is refused as it stands. *)
exception Unreadable of Json.t

(* Last event per id wins. *)
let replay file =
  let r = Wal.replay ~magic file in
  let entries = Hashtbl.create 16 in
  let order = ref [] in
  let diags = ref [] in
  let seq_hw = ref 0 in
  List.iter
    (fun ((_, line) as numbered) ->
      let diag why = diags := Wal.diagnosis file numbered why :: !diags in
      let verb, rest = split_word line in
      match verb with
      | "seq" -> (
          match int_of_string_opt rest with
          | Some n -> seq_hw := max !seq_hw n
          | None -> diag "bad seq line")
      | "submit" -> (
          let id, rest = split_word rest in
          let _, job_line = split_word rest in
          match Job.cell_of_line job_line with
          | Ok cell ->
              if not (Hashtbl.mem entries id) then order := id :: !order;
              Hashtbl.replace entries id { id; fp = Job.fingerprint cell; cell; state = Pending };
              Option.iter (fun n -> seq_hw := max !seq_hw n) (seq_of_id id)
          | Error why ->
              let lineno, text = numbered in
              raise
                (Unreadable
                   Json.(
                     Obj
                       [
                         ("error", Str "queue-unreadable");
                         ("ledger", Str file);
                         ("line", int lineno);
                         ("text", Str text);
                         ("detail", Str why);
                         ("hint", Str "the job cannot be read; the ledger is left as it is");
                       ])))
      | "start" -> (
          match Hashtbl.find_opt entries rest with
          | Some e -> e.state <- Running
          | None -> diag "start for unknown job")
      | "done" -> (
          match String.split_on_char ' ' rest with
          | [ id; v ] -> (
              match (Hashtbl.find_opt entries id, Job.verdict_of_string v) with
              | Some e, Ok verdict -> e.state <- Done verdict
              | None, _ -> diag "done for unknown job"
              | _, Error why -> diag why)
          | _ -> diag "malformed done line")
      | "cancel" -> (
          match Hashtbl.find_opt entries rest with
          | Some e -> e.state <- Cancelled
          | None -> diag "cancel for unknown job")
      | _ -> diag "unknown ledger verb")
    r.Wal.records;
  let in_order = List.rev_map (fun id -> Hashtbl.find entries id) !order in
  (in_order, !seq_hw, List.rev !diags @ r.Wal.diags)

(* ----------------------------------------------------------------- *)
(* Appends *)

let submit_line e =
  Printf.sprintf "submit %s %s %s" e.id e.fp (Job.cell_to_line e.cell)

let open_ ~dir =
  Substrate.Fs.mkdir_p dir;
  let file = path dir in
  match replay file with
  | exception Unreadable refusal -> Error (Json.to_string refusal)
  | all, seq_hw, diags -> (
      let recovered = List.filter (fun e -> e.state = Pending || e.state = Running) all in
      List.iter (fun e -> e.state <- Pending) recovered;
      (* Compact: survivors only, re-submitted, under a fresh seq
         high-water — atomically, so a crash mid-compaction keeps the
         old ledger. *)
      (try
         Wal.rewrite ~magic file
           (Printf.sprintf "seq %d" seq_hw :: List.map submit_line recovered)
       with e -> Log.warn (fun k -> k "queue compaction failed: %s" (Printexc.to_string e)));
      match Wal.open_ ~magic file with
      | exception e -> Error ("cannot open queue ledger: " ^ Printexc.to_string e)
      | wal -> Ok ({ wal; next_seq = seq_hw + 1 }, recovered, diags))

(* Every job line on record counts, terminal or not, torn or not: a
   ledger that ever held a job is never silently discarded. The [seq]
   high-water line every open writes is not a job. *)
let ledger =
  {
    Supervise.name = "queue";
    entries =
      (fun dir ->
        let r = Wal.replay ~magic (path dir) in
        List.length (List.filter (fun (_, l) -> fst (split_word l) <> "seq") r.Wal.records)
        + List.length r.Wal.diags);
  }

let submit t cell =
  let id = Printf.sprintf "j%d" t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let e = { id; fp = Job.fingerprint cell; cell; state = Pending } in
  Wal.append t.wal (submit_line e);
  e

let start t e =
  e.state <- Running;
  Wal.append t.wal ("start " ^ e.id)

let finish t e verdict =
  e.state <- Done verdict;
  Wal.append t.wal (Printf.sprintf "done %s %s" e.id (Job.verdict_to_string verdict))

let cancel t e =
  e.state <- Cancelled;
  Wal.append t.wal ("cancel " ^ e.id)

let close t = Wal.close t.wal
