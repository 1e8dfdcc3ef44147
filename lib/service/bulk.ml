(* Cells in bulk: the admission check for a cell, the probe payload
   that crosses back from a certified cell, and the cell runner ([run])
   that the local atlas pool and the daemon's workers both call. The
   cell type, its line and its fingerprint are Job's. *)

let validate (c : Job.cell_spec) =
  let ( let* ) = Result.bind in
  let* () = if c.Job.degree > 0 then Ok () else Error "degree must be positive" in
  let* () =
    if c.Job.bisect_steps >= 0 then Ok () else Error "bisect steps must be >= 0"
  in
  let* () =
    if c.Job.advect_iters > 0 then Ok () else Error "advect iters must be positive"
  in
  let* () = if c.Job.cell_id <> "" then Ok () else Error "cell id must be non-empty" in
  let* () =
    match c.Job.budget_s with
    | Some b when not (Float.is_finite b && b > 0.0) ->
        Error "budget must be positive and finite"
    | _ -> Ok ()
  in
  let rec no_dup = function
    | [] -> Ok ()
    | (a, _, _) :: tl ->
        if List.exists (fun (b, _, _) -> b = a) tl then
          Error (Printf.sprintf "duplicate box axis %s" (Pll.axis_name a))
        else no_dup tl
  in
  let* () = no_dup c.Job.box in
  let* () =
    List.fold_left
      (fun acc (a, lo, hi) ->
        let* () = acc in
        if Float.is_finite lo && Float.is_finite hi && lo > 0.0 && hi >= lo then
          Ok ()
        else
          Error
            (Printf.sprintf "box bounds for %s must be positive finite with lo <= hi"
               (Pll.axis_name a)))
      (Ok ()) c.Job.box
  in
  Result.map ignore (Job.raw_of_box c.Job.order c.Job.box)

(* ----------------------------------------------------------------- *)
(* Probes *)

type probe = {
  ok : bool;
  beta : float;
  kind : string;  (* the atlas quarantine taxonomy; "" when ok *)
  detail : string;
  journal : Json.t option;  (* the full diagnosis, quarantine forensics *)
  solves : int;
  attempts : int;
  attempt_s : float;
}

let probe_fail ~kind ~detail =
  {
    ok = false;
    beta = 0.0;
    kind;
    detail;
    journal = Some (Json.Obj [ ("error", Json.Str detail) ]);
    solves = 0;
    attempts = 0;
    attempt_s = 0.0;
  }

(* The answers the scheduler makes for a cell that gave none, the same
   locally and on the daemon. *)
let crashed ~why = { (probe_fail ~kind:"crash" ~detail:why) with detail = "cell worker crashed" }

let budget_exhausted =
  probe_fail ~kind:"budget-exhausted" ~detail:"worker exceeded the job deadline and was killed"

let deadline_grace_s = 5.0

(* The verdict a probe carries, by the one kind table. *)
let verdict p =
  if p.ok then Job.Verified
  else
    match List.assoc_opt p.kind Job.kinds with
    | Some Job.Not_established -> Job.Not_established
    | _ -> Job.Failed

(* Conclusive probes are facts about the cell's problem and may be
   replayed from the result store; budget- or fault-shaped ones
   (Failed) are not. This is also why the fingerprint may soundly
   exclude the budget. *)
let storable p = verdict p <> Job.Failed

let probe_to_json p =
  Json.Obj
    [
      ("ok", Json.Bool p.ok);
      ("beta", Json.Num p.beta);
      ("kind", Json.Str p.kind);
      ("detail", Json.Str p.detail);
      ("journal", Option.value p.journal ~default:Json.Null);
      ("solves", Json.Num (float_of_int p.solves));
      ("attempts", Json.Num (float_of_int p.attempts));
      ("attempt_s", Json.Num p.attempt_s);
    ]

let probe_of_json j =
  match Json.mem_bool "ok" j with
  | None -> Error "probe object missing \"ok\""
  | Some ok ->
      Ok
        {
          ok;
          beta = Option.value (Json.mem_num "beta" j) ~default:0.0;
          kind = Option.value (Json.mem_str "kind" j) ~default:"";
          detail = Option.value (Json.mem_str "detail" j) ~default:"";
          journal =
            (* A probe stored before diagnoses were values holds its
               journal as a string; it reads back as one. *)
            (match Json.member "journal" j with Some Json.Null -> None | v -> v);
          solves =
            (match Json.mem_num "solves" j with
            | Some f -> int_of_float f
            | None -> 0);
          attempts =
            (match Json.mem_num "attempts" j with
            | Some f -> int_of_float f
            | None -> 0);
          attempt_s = Option.value (Json.mem_num "attempt_s" j) ~default:0.0;
        }

(* ----------------------------------------------------------------- *)
(* Certification *)

let run ~ctx ?faults c =
  let policy = Job.make_policy ~supervise:ctx ?faults c in
  let o = Job.certify ~policy c in
  let ok = o.Job.verdict = Job.Verified in
  {
    ok;
    beta = o.Job.beta;
    kind = o.Job.kind;
    detail = o.Job.detail;
    journal = (if ok then None else Some (Resilient.report_json policy));
    solves = o.Job.solves;
    attempts = o.Job.attempts;
    attempt_s = o.Job.attempt_s;
  }
