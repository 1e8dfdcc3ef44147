(* The repository benchmark: four verification workloads measured from
   outside the program, end-to-end metrics by default and a per-layer
   breakdown with --trace.

     benchsuite/suite.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
     benchsuite/suite.exe --list
     benchsuite/suite.exe check BENCHMARK.json
     benchsuite/suite.exe ab OLD NEW [--benchmark BENCHMARK.json]

   Each workload runs in its own forked child (so peak RSS is that
   workload's) and its own process group (so a run past its time limit
   is killed with every worker it started). Stdout carries only
   metrics; the last line is one JSON object. Each run also writes a
   ledger under _bench_cache/runs/<run-id>/: results.json or
   layers.json, table2.md for traced verify-* workloads, quiet
   per-workload logs/ and config.txt. See benchsuite/README.md. *)

module J = Service.Json

let usage () =
  prerr_endline
    "usage: suite.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]\n\
    \       suite.exe --list | check BENCHMARK.json | ab OLD NEW [--benchmark FILE]";
  exit 124

(* A workload must end well inside 180 s; past this its child is
   killed. *)
let time_limit_s = 170.0

(* The measuring time a workload may ask for. Preparation and the
   panel that always runs come on top of it (replay-third spends about
   12 s preparing, verify-third's panel of four verdicts takes about
   30 s), so more would end in the kill above. *)
let max_seconds = 120.0

type opts = { workloads : string list; seed : int; seconds : float; trace : bool }

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
        let ws = if w = "all" then Catalogue.workloads else [ w ] in
        List.iter
          (fun w ->
            if not (List.mem w Catalogue.workloads) then begin
              Printf.eprintf "suite: unknown workload %s\n" w;
              usage ()
            end)
          ws;
        go { o with workloads = ws } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some seed -> go { o with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0.0 && x <= max_seconds -> go { o with seconds = x } rest
        | _ ->
            Printf.eprintf
              "suite: --seconds takes a number in (0, %g]; a workload is killed after %g s\n"
              max_seconds time_limit_s;
            usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | _ -> usage ()
  in
  go { workloads = Catalogue.workloads; seed = 0; seconds = 20.0; trace = false } args

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)

let git_head () =
  let read f = try Some (String.trim (Meter.read_file f)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with
      | Some sha -> sha
      | None -> (
          let packed = Option.value ~default:"" (read ".git/packed-refs") in
          match
            List.find_opt
              (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = r)
              (String.split_on_char '\n' packed)
          with
          | Some l -> String.sub l 0 40
          | None -> "unknown"))
  | Some sha -> sha

let open_ledger o =
  let tm = Unix.gmtime (Unix.time ()) in
  let id =
    Printf.sprintf "%04d%02d%02dT%02d%02d%02d-%d-seed%d%s" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
      (Unix.getpid ()) o.seed
      (if o.trace then "-trace" else "")
  in
  let dir = Filename.concat "_bench_cache" (Filename.concat "runs" id) in
  Meter.mkdir_p (Filename.concat dir "logs");
  Meter.write_file (Filename.concat dir "config.txt")
    (Printf.sprintf
       "benchmark_json_md5 %s\nseed %d\nworkloads %s\nseconds %g\ntrace %b\nnproc %d\njobs %d\nocaml %s\ngit_head %s\n"
       (try Digest.to_hex (Digest.file "BENCHMARK.json") with Sys_error _ -> "absent")
       o.seed (String.concat "," o.workloads) o.seconds o.trace (Supervise.ncpus ())
       (Workloads.jobs ()) Sys.ocaml_version (git_head ()));
  dir

(* ------------------------------------------------------------------ *)
(* One workload in its own child                                       *)

let child ~ledger ~work ~out o name =
  let oc = open_out (Filename.concat ledger (Filename.concat "logs" (name ^ ".log"))) in
  let log = Format.formatter_of_out_channel oc in
  Logs.set_reporter (Logs_fmt.reporter ~dst:log ());
  Logs.set_level (Some Logs.Warning);
  let env = { Workloads.seed = o.seed; work; log } in
  Format.fprintf log "workload %s, seed %d, %s@." name o.seed
    (if o.trace then "traced" else Printf.sprintf "%g s" o.seconds);
  let r = Workloads.run env ~name ~seconds:o.seconds ~trace:o.trace in
  let doc =
    J.Obj
      ([
         ("attempted", J.Num (float_of_int r.Workloads.attempted));
         ("failed", J.Num (float_of_int r.Workloads.failed));
         ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.Workloads.metrics));
       ]
      @ match r.Workloads.table2 with Some t -> [ ("table2", t) ] | None -> [])
  in
  Meter.write_file out (J.to_string doc);
  Format.pp_print_flush log ();
  close_out oc

let rec reap pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Meter.now () > deadline then begin
        (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
        Meter.waitpid pid;
        None
      end
      else begin
        Unix.sleepf 0.05;
        reap pid ~deadline
      end
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid ~deadline

(* Nothing a workload started outlives it, even when it failed with
   workers still running: SIGKILL what is left of its process group
   (its reaped leader's pid) and wait, up to 5 s, until it is gone. *)
let kill_group pgid =
  let rec gone n =
    match Unix.kill (-pgid) 0 with
    | () when n > 0 ->
        Unix.sleepf 0.05;
        gone (n - 1)
    | () | (exception Unix.Unix_error _) -> ()
  in
  (try Unix.kill (-pgid) Sys.sigkill with Unix.Unix_error _ -> ());
  gone 100

let run_workload ~ledger ~deadline o name =
  let out = Filename.concat ledger (name ^ ".part.json") in
  let work = Filename.concat "_bench_cache" (Printf.sprintf "work-%d-%s" (Unix.getpid ()) name) in
  flush stdout;
  flush stderr;
  let result =
    match Unix.fork () with
    | 0 ->
        ignore (Unix.setsid ());
        let code =
          match child ~ledger ~work ~out o name with
          | () -> 0
          | exception e ->
              Printf.eprintf "suite: %s: %s\n%!" name (Printexc.to_string e);
              1
        in
        (try Meter.rm_rf work with _ -> ());
        exit code
    | pid ->
        let st = reap pid ~deadline in
        kill_group pid;
        st
  in
  (* The child cleans up after itself; this covers a killed one. *)
  (try Meter.rm_rf work with _ -> ());
  match result with
  | Some (Unix.WEXITED 0) -> (
      let doc = Meter.read_file out in
      Sys.remove out;
      match J.parse doc with Ok j -> Ok j | Error e -> Error ("unreadable result: " ^ e))
  | Some (Unix.WEXITED c) -> Error (Printf.sprintf "exited with code %d" c)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Error (Printf.sprintf "killed by signal %d" s)
  | None -> Error (Printf.sprintf "still running after %.0f s; killed" time_limit_s)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

let table2 columns =
  let col order = List.assoc_opt order columns in
  let num c k = Option.bind c (J.mem_num k) in
  let cell c k = match num c k with Some x -> Printf.sprintf "%.2f" x | None -> "-" in
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  let third = col "third" and fourth = col "fourth" in
  let desc c =
    match c with
    | Some c ->
        Printf.sprintf "%s, degree %.0f"
          (if J.mem_str "property" c = Some "full" then "full P1+P2" else "P1 only")
          (Option.value ~default:0.0 (J.mem_num "degree" c))
    | None -> "not run"
  in
  p "# Table 2: computation time of the inevitability verification\n\n";
  p "Measured by `benchsuite/suite.exe --trace` (seconds). *span* is the bench's monotonic clock\n";
  p "around the public call; *program* is the step time the pipeline reports about itself\n";
  p "(`Pll_core.Inevitability.step_times`: CPU time of this process for the certificate steps,\n";
  p "wall time for the advection steps), so under `-j 2` supervision the certificate rows miss\n";
  p "the work done in forked workers. Third order: %s. Fourth order: %s.\n\n" (desc third)
    (desc fourth);
  p "| Verification step | 3rd span | 3rd program | paper 3rd | 4th span | 4th program | paper 4th |\n";
  p "|---|---:|---:|---:|---:|---:|---:|\n";
  let row name ?span ?program p3 p4 =
    let at k c = match k with Some k -> cell c k | None -> "-" in
    let s c = if span = None then "(in Advect.run)" else at span c in
    p "| %s | %s | %s | %s | %s | %s | %s |\n" name (s third) (at program third) p3 (s fourth)
      (at program fourth) p4
  in
  row "Attractive invariant" ~span:"lyapunov_span" ~program:"lyapunov_reported" "1381.7 (d6)"
    "10021 (d4)";
  row "Max. level curves" ~span:"level_span" ~program:"level_reported" "15.5" "12";
  row "Advection (span: all of Advect.run)" ~span:"advect_span" ~program:"advection_reported"
    "106.8 (14 it)" "140.7 (7 it)";
  row "Checking set inclusion" ~program:"inclusion_reported" "13" "10.2";
  row "Escape certificate" ~program:"escape_reported" "-" "18 (2 certs)";
  row "Exact re-proof of P1 (not in paper)" ~span:"exact_span" "-" "-";
  row "Traced verdict, set-up included" ~span:"traced_s" "-" "-";
  let count c k = match num c k with Some x -> Printf.sprintf "%.0f" x | None -> "-" in
  p "\nAdvection iterations: 3rd = %s (paper 14), 4th = %s (paper 7). Escape certificates: 3rd = %s (paper 0), 4th = %s (paper 2).\n"
    (count third "iterations") (count fourth "iterations") (count third "escapes")
    (count fourth "escapes");
  Buffer.contents b

(* ------------------------------------------------------------------ *)

(* [(name, value, unit)] as the {name: {"value", "unit"}} object. *)
let metrics_json l =
  J.Obj (List.map (fun (k, v, u) -> (k, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ])) l)

let with_units ?(prefix = "") ms =
  List.map (fun (k, v) -> (prefix ^ k, v, Catalogue.unit_of k)) ms

let main o =
  let ledger = open_ledger o in
  let results =
    List.map
      (fun name ->
        match run_workload ~ledger ~deadline:(Meter.now () +. time_limit_s) o name with
        | Ok j -> (name, j)
        | Error e ->
            Printf.eprintf "suite: workload %s %s; see %s/logs/%s.log\n" name e ledger name;
            exit 1)
      o.workloads
  in
  let rows =
    List.map
      (fun (name, j) ->
        let n k = int_of_float (Option.value ~default:0.0 (J.mem_num k j)) in
        let ms =
          Option.value ~default:[] (Option.bind (J.member "metrics" j) J.obj)
          |> List.map (fun (k, v) -> (k, Option.value ~default:nan (J.num v)))
        in
        List.iter
          (fun (k, v) ->
            if not (Float.is_finite v) then begin
              Printf.eprintf "suite: %s: metric %s is not a number\n" name k;
              exit 1
            end)
          ms;
        (name, n "attempted", n "failed", ms, J.member "table2" j))
      results
  in
  List.iter
    (fun (name, a, f, ms, _) ->
      Printf.printf "%-14s %-36s %d/%d\n" name "failed/attempted" f a;
      List.iter
        (fun (k, v) -> Printf.printf "%-14s %-36s %.6g %s\n" name k v (Catalogue.unit_of k))
        ms)
    rows;
  let attempted = List.fold_left (fun s (_, a, _, _, _) -> s + a) 0 rows in
  let failed = List.fold_left (fun s (_, _, f, _, _) -> s + f) 0 rows in
  let doc =
    J.Obj
      [
        ("suite", J.Str "pll-sos benchsuite v1");
        ("seed", J.Num (float_of_int o.seed));
        ("seconds", J.Num o.seconds);
        ("trace", J.Bool o.trace);
        ( "workloads",
          J.Arr
            (List.map
               (fun (name, a, f, ms, _) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("correct", J.Bool (f = 0 && a > 0));
                     ("attempted", J.Num (float_of_int a));
                     ("failed", J.Num (float_of_int f));
                     ("metrics", metrics_json (with_units ms));
                   ])
               rows) );
      ]
  in
  Meter.write_file
    (Filename.concat ledger (if o.trace then "layers.json" else "results.json"))
    (J.to_string doc ^ "\n");
  (match List.filter_map (fun (_, _, _, _, t) -> t) rows with
  | [] -> ()
  | cols ->
      let by_order =
        List.filter_map (fun c -> Option.map (fun o -> (o, c)) (J.mem_str "order" c)) cols
      in
      Meter.write_file (Filename.concat ledger "table2.md") (table2 by_order));
  (* With several workloads the names are prefixed "<workload>/". *)
  let metrics =
    match rows with
    | [ (_, _, _, ms, _) ] -> with_units ms
    | _ -> List.concat_map (fun (n, _, _, ms, _) -> with_units ~prefix:(n ^ "/") ms) rows
  in
  Printf.eprintf "suite: ledger %s\n" ledger;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0 && attempted > 0));
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", metrics_json metrics);
          ]))

let list () =
  List.iter (Printf.printf "workload %s\n") Catalogue.workloads;
  let pr kind (m : Catalogue.metric) =
    Printf.printf "%s %s %s %s\n" kind m.Catalogue.name m.Catalogue.unit_ m.Catalogue.better
  in
  List.iter (pr "end_to_end") Catalogue.end_to_end;
  List.iter (pr "per_layer") Catalogue.per_layer

let check path =
  match J.parse (Meter.read_file path) with
  | Error e ->
      Printf.eprintf "suite check: %s: %s\n" path e;
      1
  | Ok j -> (
      match Catalogue.check j with
      | [] ->
          Printf.printf "suite check: %s names exactly this suite's workloads and metrics\n" path;
          0
      | problems ->
          List.iter (Printf.eprintf "suite check: %s\n") problems;
          1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] -> list ()
  | [ "check"; path ] -> exit (check path)
  | [ "ab"; a; b ] -> exit (Compare.run ~benchmark:"BENCHMARK.json" a b)
  | [ "ab"; a; b; "--benchmark"; bench ] -> exit (Compare.run ~benchmark:bench a b)
  | "ab" :: _ | "check" :: _ -> usage ()
  | args -> main (parse args)
