(* Cells, the daemon's one job type: the canonical wire format for a
   box of parameters (a sweep cell, or a point as a degenerate box), its
   content fingerprint, the probe payload that crosses back, and the
   cell certifier itself ([run]) — the local atlas pool and the daemon's
   workers both certify cells here, through Job's pipeline. *)

type cell_spec = {
  order : Pll.order;
  degree : int;
  robust : bool;
  full : bool;
  exact : bool;
  bisect_steps : int;
  advect_iters : int;
  psd_tol : float option;
  eq_tol : float option;
  budget_s : float option;
  cell_id : string;
  depth : int;
  box : (Pll.axis * float * float) list;
}

(* ----------------------------------------------------------------- *)
(* Canonical line + fingerprint *)

let magic = "pll-cell v1"

(* Advect's default cap, which --full sweep cells have always run with
   (point jobs default to 25). A cell line names its cap only when it
   differs, so sweep cells keep the line they always had. *)
let default_advect_iters = 20

let box_to_string box =
  String.concat ","
    (List.map
       (fun (a, lo, hi) -> Printf.sprintf "%s:%h:%h" (Pll.axis_name a) lo hi)
       box)

let box_of_string s =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc tok ->
      let* bx = acc in
      match String.split_on_char ':' tok with
      | [ a; lo; hi ] -> (
          let* a = Pll.axis_of_string a in
          match (float_of_string_opt lo, float_of_string_opt hi) with
          | Some lo, Some hi -> Ok ((a, lo, hi) :: bx)
          | _ -> Error (Printf.sprintf "bad box bounds in %S" tok))
      | _ -> Error (Printf.sprintf "bad box token %S (want AXIS:LO:HI)" tok))
    (Ok [])
    (String.split_on_char ',' s)
  |> Result.map List.rev

(* [with_identity:false] drops the cell id, depth and budget: the box
   and the certification configuration fully determine the per-cell
   problem, so two grids that tile the same box share results — and a
   re-budgeted resubmission replays instead of re-solving. *)
let to_line ?(with_identity = true) c =
  let b = Buffer.create 128 in
  Buffer.add_string b magic;
  Printf.bprintf b " order=%s degree=%d robust=%b full=%b exact=%b bisect=%d"
    (Job.order_name c.order) c.degree c.robust c.full c.exact c.bisect_steps;
  if c.advect_iters <> default_advect_iters then
    Printf.bprintf b " advect=%d" c.advect_iters;
  Option.iter (Printf.bprintf b " psd-tol=%h") c.psd_tol;
  Option.iter (Printf.bprintf b " eq-tol=%h") c.eq_tol;
  Printf.bprintf b " box=%s" (box_to_string c.box);
  if with_identity then begin
    Printf.bprintf b " id=%s depth=%d" c.cell_id c.depth;
    match c.budget_s with
    | Some s -> Printf.bprintf b " budget=%h" s
    | None -> ()
  end;
  Buffer.contents b

let of_line line =
  let ( let* ) = Result.bind in
  let l = String.length magic in
  if String.length line < l || String.sub line 0 l <> magic then
    Error "not a cell line (bad magic)"
  else
    let fields =
      String.sub line l (String.length line - l)
      |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
      |> List.filter_map (fun tok ->
             match String.index_opt tok '=' with
             | None -> None
             | Some i ->
                 Some
                   ( String.sub tok 0 i,
                     String.sub tok (i + 1) (String.length tok - i - 1) ))
    in
    let get k = List.assoc_opt k fields in
    let* order =
      match get "order" with
      | Some o -> Job.order_of_name o
      | None -> Error "missing order"
    in
    let int_field k dflt =
      match get k with
      | None -> Ok dflt
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> Ok i
          | None -> Error (Printf.sprintf "bad %s field %S" k v))
    in
    let* degree = int_field "degree" (Job.paper_degree order) in
    let* bisect_steps = int_field "bisect" 6 in
    let* advect_iters = int_field "advect" default_advect_iters in
    let* depth = int_field "depth" 0 in
    let float_field k =
      match get k with
      | None -> Ok None
      | Some v -> (
          match float_of_string_opt v with
          | Some f -> Ok (Some f)
          | None -> Error (Printf.sprintf "bad %s field %S" k v))
    in
    let* psd_tol = float_field "psd-tol" in
    let* eq_tol = float_field "eq-tol" in
    let* budget_s = float_field "budget" in
    let* box =
      match get "box" with
      | None -> Error "missing box"
      | Some "" -> Ok []
      | Some s -> box_of_string s
    in
    Ok
      {
        order;
        degree;
        robust = get "robust" = Some "true";
        full = get "full" = Some "true";
        exact = get "exact" = Some "true";
        bisect_steps;
        advect_iters;
        psd_tol;
        eq_tol;
        budget_s;
        cell_id = Option.value (get "id") ~default:"";
        depth;
        box;
      }

let fingerprint c = Digest.to_hex (Digest.string (to_line ~with_identity:false c))

(* A point is a degenerate box, listed in canonical axis order so the
   fingerprint does not depend on how the client ordered the axes. *)
let of_spec (spec : Job.spec) =
  {
    order = spec.Job.order;
    degree = spec.Job.degree;
    robust = spec.Job.robust;
    full = spec.Job.property = Job.Full;
    exact = false;
    bisect_steps = spec.Job.bisect_steps;
    advect_iters = spec.Job.advect_iters;
    psd_tol = spec.Job.psd_tol;
    eq_tol = spec.Job.eq_tol;
    budget_s = spec.Job.deadline_s;
    cell_id = "point";
    depth = 0;
    box = List.map (fun (a, v) -> (a, v, v)) (Job.sort_point spec.Job.point);
  }

let validate c =
  let ( let* ) = Result.bind in
  let* () = if c.degree > 0 then Ok () else Error "degree must be positive" in
  let* () =
    if c.bisect_steps >= 0 then Ok () else Error "bisect steps must be >= 0"
  in
  let* () =
    if c.advect_iters > 0 then Ok () else Error "advect iters must be positive"
  in
  let* () = if c.cell_id <> "" then Ok () else Error "cell id must be non-empty" in
  let* () =
    match c.budget_s with
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
  let* () = no_dup c.box in
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
      (Ok ()) c.box
  in
  Result.map ignore (Job.raw_of_box c.order c.box)

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
  let box =
    if c.robust then c.box
    else
      List.map
        (fun (a, lo, hi) ->
          let m = 0.5 *. (lo +. hi) in
          (a, m, m))
        c.box
  in
  match Job.raw_of_box c.order box with
  | Error e -> probe_fail ~kind:"bad-cell" ~detail:e
  | Ok raw ->
      let spec =
        {
          (Job.default_spec c.order) with
          Job.property = (if c.full then Job.Full else Job.P1);
          degree = c.degree;
          robust = c.robust;
          bisect_steps = c.bisect_steps;
          advect_iters = c.advect_iters;
          psd_tol = c.psd_tol;
          eq_tol = c.eq_tol;
          deadline_s = c.budget_s;
        }
      in
      let policy = Job.make_policy ~supervise:ctx ?faults spec in
      let exact = if c.exact then Some ("cell-" ^ c.cell_id ^ ".artifact") else None in
      let o = Job.certify ~policy ?exact spec raw in
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
