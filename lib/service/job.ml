module Log = (val Logs.src_log (Logs.Src.create "service.job") : Logs.LOG)

type property = P1 | Full

(* The cell is defined before [spec], so that [spec]'s labels, which
   callers read unqualified, are the ones in scope. *)
type cell_spec = {
  order : Pll.order;
  degree : int;
  robust : bool;
  property : property;
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

type spec = {
  order : Pll.order;
  property : property;
  degree : int;
  robust : bool;
  point : (Pll.axis * float) list;
  bisect_steps : int;
  advect_iters : int;
  psd_tol : float option;
  eq_tol : float option;
  deadline_s : float option;
}

let paper_degree = function Pll.Third -> 6 | Pll.Fourth -> 4

let default_spec order =
  {
    order;
    property = P1;
    degree = paper_degree order;
    robust = false;
    point = [];
    bisect_steps = 6;
    advect_iters = 25;
    psd_tol = None;
    eq_tol = None;
    deadline_s = None;
  }

let order_name = function Pll.Third -> "third" | Pll.Fourth -> "fourth"

let order_of_name = function
  | "third" -> Ok Pll.Third
  | "fourth" -> Ok Pll.Fourth
  | s -> Error (Printf.sprintf "unknown order %S (third|fourth)" s)

let property_of_name = function
  | "p1" -> Ok P1
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown property %S (p1|full)" s)

let point_of_string s =
  let s = String.trim s in
  if s = "" || s = "nominal" then Ok []
  else
    let ( let* ) = Result.bind in
    List.fold_left
      (fun acc tok ->
        let* pt = acc in
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "bad point entry %S (want AXIS=FACTOR)" tok)
        | Some i -> (
            let* a = Pll.axis_of_string (String.sub tok 0 i) in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            match float_of_string_opt v with
            | Some f -> Ok ((a, f) :: pt)
            | None -> Error (Printf.sprintf "bad factor %S for %s" v (String.sub tok 0 i))))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

(* ----------------------------------------------------------------- *)
(* The cell line: the one request codec *)

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
let cell_to_line ?(with_identity = true) (c : cell_spec) =
  let b = Buffer.create 128 in
  Buffer.add_string b magic;
  Printf.bprintf b " order=%s degree=%d robust=%b full=%b exact=%b bisect=%d"
    (order_name c.order) c.degree c.robust (c.property = Full) c.exact c.bisect_steps;
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

let cell_of_line line =
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
      | Some o -> order_of_name o
      | None -> Error "missing order"
    in
    let d = default_spec order in
    let int_field k dflt =
      match get k with
      | None -> Ok dflt
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> Ok i
          | None -> Error (Printf.sprintf "bad %s field %S" k v))
    in
    let* degree = int_field "degree" d.degree in
    let* bisect_steps = int_field "bisect" d.bisect_steps in
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
        property = (if get "full" = Some "true" then Full else P1);
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

let fingerprint c = Digest.to_hex (Digest.string (cell_to_line ~with_identity:false c))

(* A point is a degenerate box, listed in the order of [Pll.axes] so the
   fingerprint does not depend on how the client ordered the axes. *)
let of_spec (spec : spec) : cell_spec =
  let rank (a, _) = List.find_index (( = ) a) Pll.axes in
  {
    order = spec.order;
    degree = spec.degree;
    robust = spec.robust;
    property = spec.property;
    exact = false;
    bisect_steps = spec.bisect_steps;
    advect_iters = spec.advect_iters;
    psd_tol = spec.psd_tol;
    eq_tol = spec.eq_tol;
    budget_s = spec.deadline_s;
    cell_id = "point";
    depth = 0;
    box =
      List.map
        (fun (a, v) -> (a, v, v))
        (List.sort (fun p q -> compare (rank p) (rank q)) spec.point);
  }

let to_line spec = cell_to_line ~with_identity:false (of_spec spec)

(* ----------------------------------------------------------------- *)
(* Verdicts and results *)

type verdict = Verified | Not_established | Failed

let verdict_to_string = function
  | Verified -> "verified"
  | Not_established -> "not-established"
  | Failed -> "failed"

let verdict_of_string = function
  | "verified" -> Ok Verified
  | "not-established" -> Ok Not_established
  | "failed" -> Ok Failed
  | s -> Error (Printf.sprintf "unknown verdict %S" s)

let exit_code = function Verified -> 0 | Not_established -> 2 | Failed -> 1

type outcome = {
  verdict : verdict;
  beta : float;
  kind : string;
  detail : string;
  solves : int;
  attempts : int;
  attempt_s : float;
  deadline_hit : bool;
}

let result_json r =
  Json.to_string
    (Json.Obj
       [
         ("verdict", Json.Str (verdict_to_string r.verdict));
         ("beta", Json.Num r.beta);
         ("kind", Json.Str r.kind);
         ("detail", Json.Str r.detail);
       ])

(* ----------------------------------------------------------------- *)
(* Execution *)

let make_policy ?supervise ?faults (c : cell_spec) =
  let faults = match faults with Some f -> f | None -> Resilient.Faults.none () in
  Resilient.make ~faults ?pipeline_deadline_s:c.budget_s ?supervise ()

let raw_of_box order box =
  let base = match order with Pll.Third -> Pll.table1_third | Pll.Fourth -> Pll.table1_fourth in
  List.fold_left
    (fun acc (a, lo, hi) -> Result.bind acc (fun raw -> Pll.set_axis_relative raw a ~lo ~hi))
    (Ok base) box

let kinds =
  [
    ("", Verified);
    ("infeasible", Not_established);
    ("level-collapse", Not_established);
    ("not-established", Not_established);
    ("validation-failed", Not_established);
    ("exact-unproven", Not_established);
    ("solver-failure", Failed);
    ("budget-exhausted", Failed);
    ("crash", Failed);
    ("bad-cell", Failed);
  ]

(* Deterministic failure classification from the policy's journal: only
   labels and statuses, never timings or raw error strings. *)
let classify policy =
  if Resilient.out_of_time policy then ("budget-exhausted", "pipeline deadline exhausted")
  else
    match List.rev (Resilient.failures policy) with
    | [] ->
        (* The certificate search journals every failure it escalates,
           and the level checks are quiet probes, so an error with a
           clean journal is the level maximization finding no positive
           certified level. *)
        ("level-collapse", "certificate found but no positive level certifies")
    | last :: _ as fails ->
        let label = last.Resilient.label in
        let infeasible =
          List.exists
            (fun (d : Resilient.diagnosis) ->
              List.exists
                (fun (a : Resilient.attempt) ->
                  match a.Resilient.status with
                  | Sdp.Primal_infeasible | Sdp.Dual_infeasible -> true
                  | _ -> false)
                d.Resilient.attempts)
            fails
        in
        if infeasible then ("infeasible", "conclusively infeasible at " ^ label)
        else ("solver-failure", "solver failed at " ^ label)

let outcome policy ?(beta = 0.0) (kind, detail) =
  let b = Resilient.consumed policy in
  {
    verdict = List.assoc kind kinds;
    beta;
    kind;
    detail;
    solves = b.Resilient.solves;
    attempts = b.Resilient.attempts;
    attempt_s = b.Resilient.attempt_s;
    deadline_hit = kind = "budget-exhausted";
  }

(* The pipeline on the model [s] that cell [c] poses. *)
let pipeline ~policy ~validate (c : cell_spec) s =
  let outcome = outcome policy in
  let base = Certificates.default_config s.Pll.order in
  let cfg =
    {
      base with
      Certificates.degree = c.degree;
      robust_vertices = c.robust;
      psd_tol = Option.value c.psd_tol ~default:base.Certificates.psd_tol;
      eq_tol = Option.value c.eq_tol ~default:base.Certificates.eq_tol;
      resilience = policy;
    }
  in
  (* Exact re-validation gate: the cell only counts as certified when
     the exact kernel re-proves it; the artifact lands in
     artifacts/cell-<id>.artifact (check_cert replays it). *)
  let supervisor = Resilient.supervisor policy in
  let certified (cert : Certificates.t) beta =
    if not c.exact then outcome ~beta ("", "")
    else
      match Certificates.validate_exactly s cert with
      | Ok ev when ev.Certificates.all_proven ->
          ignore
            (Supervise.save_artifact supervisor
               ~name:("cell-" ^ c.cell_id ^ ".artifact")
               (Exact.Artifact.write ev.Certificates.artifact));
          outcome ~beta ("", "")
      | Ok ev ->
          let failed =
            List.filter_map
              (fun (name, v) ->
                match v with Exact.Check.Proven _ -> None | _ -> Some name)
              ev.Certificates.verdicts
          in
          outcome
            ("exact-unproven", "exact kernel could not prove: " ^ String.concat ", " failed)
      | Error _ -> outcome ("exact-unproven", "exact re-validation solve failed")
  in
  try
    match c.property with
    | Full -> (
        match
          Pll_core.Inevitability.verify ~cert_config:cfg ~max_advect_iter:c.advect_iters
            ~resilience:policy s
        with
        | Ok report when report.Pll_core.Inevitability.verified ->
            let inv = report.Pll_core.Inevitability.invariant in
            if validate report then certified inv.Certificates.cert inv.Certificates.beta
            else
              outcome
                ("validation-failed", "pipeline verified but extra validation failed")
        | Ok _ when Resilient.failures policy = [] && not (Resilient.out_of_time policy) ->
            outcome
              ("not-established", "pipeline completed but P1 and P2 not both established")
        | Ok _ | Error _ -> outcome (classify policy))
    | P1 -> (
        (* [attractive_invariant] answers [Error] rather than a level <= 0. *)
        match
          Certificates.attractive_invariant ~config:cfg ~bisect_steps:c.bisect_steps s
        with
        | Ok ai -> certified ai.Certificates.cert ai.Certificates.beta
        | Error _ -> outcome (classify policy))
  with
  | Supervise.Interrupted -> raise Supervise.Interrupted
  | e ->
      Log.warn (fun k -> k "certification crashed: %s" (Printexc.to_string e));
      outcome ("crash", Printexc.to_string e)

(* A box is certified at its midpoint, or as a whole when robust; a
   point's midpoint is the point itself. *)
let certify ~policy ?(validate = fun _ -> true) (c : cell_spec) =
  let box =
    if c.robust then c.box
    else
      List.map
        (fun (a, lo, hi) ->
          let m = 0.5 *. (lo +. hi) in
          (a, m, m))
        c.box
  in
  (* Reap the solver worker when the verdict returns, so that its CPU
     time is accounted to the caller. *)
  Fun.protect ~finally:(fun () -> Supervise.release (Resilient.supervisor policy))
  @@ fun () ->
  match raw_of_box c.order box with
  | Error e -> outcome policy ("bad-cell", e)
  | Ok raw -> pipeline ~policy ~validate c (Pll.scale raw)

let run ~policy ?validate spec = certify ~policy ?validate (of_spec spec)
