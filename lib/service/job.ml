module Log = (val Logs.src_log (Logs.Src.create "service.job") : Logs.LOG)

type property = P1 | Full

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

let property_name = function P1 -> "p1" | Full -> "full"

let property_of_name = function
  | "p1" -> Ok P1
  | "full" -> Ok Full
  | s -> Error (Printf.sprintf "unknown property %S (p1|full)" s)

(* Canonical point order: axis declaration order, so the fingerprint is
   independent of how the client happened to list the axes. *)
let sort_point point =
  let rank a =
    let rec go i = function
      | [] -> max_int
      | x :: _ when x = a -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 Pll.axes
  in
  List.sort (fun (a, _) (b, _) -> compare (rank a) (rank b)) point

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
(* Canonical line + fingerprint *)

let magic = "pll-job v1"

let to_line spec =
  let b = Buffer.create 128 in
  Buffer.add_string b magic;
  Printf.bprintf b " order=%s prop=%s degree=%d robust=%b bisect=%d advect=%d"
    (order_name spec.order) (property_name spec.property) spec.degree spec.robust
    spec.bisect_steps spec.advect_iters;
  (match spec.psd_tol with Some t -> Printf.bprintf b " psd-tol=%h" t | None -> ());
  (match spec.eq_tol with Some t -> Printf.bprintf b " eq-tol=%h" t | None -> ());
  Printf.bprintf b " point=%s"
    (match sort_point spec.point with
    | [] -> "nominal"
    | pt ->
        String.concat ","
          (List.map (fun (a, v) -> Printf.sprintf "%s:%h" (Pll.axis_name a) v) pt));
  Buffer.contents b

let of_line line =
  let ( let* ) = Result.bind in
  let l = String.length magic in
  if String.length line < l || String.sub line 0 l <> magic then
    Error "not a job line (bad magic)"
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
      match get "order" with Some o -> order_of_name o | None -> Error "missing order"
    in
    let d = default_spec order in
    let* property =
      match get "prop" with Some p -> property_of_name p | None -> Ok d.property
    in
    let int_field k dflt =
      match get k with
      | None -> Ok dflt
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> Ok i
          | None -> Error (Printf.sprintf "bad %s field %S" k v))
    in
    let float_field k =
      match get k with
      | None -> Ok None
      | Some v -> (
          match float_of_string_opt v with
          | Some f -> Ok (Some f)
          | None -> Error (Printf.sprintf "bad %s field %S" k v))
    in
    let* degree = int_field "degree" d.degree in
    let* bisect_steps = int_field "bisect" d.bisect_steps in
    let* advect_iters = int_field "advect" d.advect_iters in
    let robust = get "robust" = Some "true" in
    let* psd_tol = float_field "psd-tol" in
    let* eq_tol = float_field "eq-tol" in
    let* deadline_s = float_field "deadline" in
    let* point =
      match get "point" with
      | None | Some "nominal" -> Ok []
      | Some p ->
          List.fold_left
            (fun acc tok ->
              let* pt = acc in
              match String.index_opt tok ':' with
              | None -> Error (Printf.sprintf "bad point token %S" tok)
              | Some i -> (
                  let* a = Pll.axis_of_string (String.sub tok 0 i) in
                  match
                    float_of_string_opt
                      (String.sub tok (i + 1) (String.length tok - i - 1))
                  with
                  | Some v -> Ok ((a, v) :: pt)
                  | None -> Error (Printf.sprintf "bad point value in %S" tok)))
            (Ok [])
            (String.split_on_char ',' p)
          |> Result.map List.rev
    in
    Ok
      {
        order;
        property;
        degree;
        robust;
        point;
        bisect_steps;
        advect_iters;
        psd_tol;
        eq_tol;
        deadline_s;
      }

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

let make_policy ?supervise ?faults spec =
  let faults = match faults with Some f -> f | None -> Resilient.Faults.none () in
  Resilient.make ~faults ?pipeline_deadline_s:spec.deadline_s ?supervise ()

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
    ("bad-point", Failed);
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

let certify ~policy ?(validate = fun _ -> true) ?exact spec raw =
  let outcome = outcome policy in
  let s = Pll.scale raw in
  let base = Certificates.default_config s.Pll.order in
  let cfg =
    {
      base with
      Certificates.degree = spec.degree;
      robust_vertices = spec.robust;
      psd_tol = Option.value spec.psd_tol ~default:base.Certificates.psd_tol;
      eq_tol = Option.value spec.eq_tol ~default:base.Certificates.eq_tol;
      resilience = policy;
    }
  in
  (* Exact re-validation gate: the run only counts as certified when the
     exact kernel re-proves it; the artifact lands in artifacts/<exact>
     (check_cert replays it). *)
  let supervisor = Resilient.supervisor policy in
  let certified (cert : Certificates.t) beta =
    match exact with
    | None -> outcome ~beta ("", "")
    | Some name -> (
        match Certificates.validate_exactly s cert with
        | Ok ev when ev.Certificates.all_proven ->
            ignore
              (Supervise.save_artifact supervisor ~name
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
        | Error _ -> outcome ("exact-unproven", "exact re-validation solve failed"))
  in
  (* Reap the solver worker when the verdict returns, so that its CPU
     time is accounted to the caller. *)
  Fun.protect ~finally:(fun () -> Supervise.release supervisor)
  @@ fun () ->
  try
    match spec.property with
    | Full -> (
        match
          Pll_core.Inevitability.verify ~cert_config:cfg ~max_advect_iter:spec.advect_iters
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
          Certificates.attractive_invariant ~config:cfg ~bisect_steps:spec.bisect_steps s
        with
        | Ok ai -> certified ai.Certificates.cert ai.Certificates.beta
        | Error _ -> outcome (classify policy))
  with
  | Supervise.Interrupted -> raise Supervise.Interrupted
  | e ->
      Log.warn (fun k -> k "certification crashed: %s" (Printexc.to_string e));
      outcome ("crash", Printexc.to_string e)

let run ~policy ?validate spec =
  match raw_of_box spec.order (List.map (fun (a, v) -> (a, v, v)) spec.point) with
  | Error e -> outcome policy ("bad-point", e)
  | Ok raw -> certify ~policy ?validate spec raw
