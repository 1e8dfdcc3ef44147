(* The names the suite reports: workloads, end-to-end metrics and
   per-layer metrics. BENCHMARK.json at the repository root must list
   exactly these (checked by [suite check], wired into runtest); why
   each workload was chosen and the regression bounds live only there. *)

type metric = { name : string; unit_ : string; better : string }

let workloads = [ "verify-third"; "verify-fourth"; "replay-third"; "sweep-p1" ]

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "verdict_s" "s" "lower";
    m "verdict_cpu_s" "s" "lower";
    m "peak_rss_mb" "MB" "lower";
  ]

(* Seconds and milliseconds here are measured on every workload;
   layers a workload does not exercise read as counts or shares of 0. *)
let per_layer =
  let lo name unit_ = m name unit_ "lower" and hi name unit_ = m name unit_ "higher" in
  [
    lo "core.traced_s" "s";
    hi "core.attributed_frac" "ratio";
    lo "trace.overhead_frac" "ratio";
    lo "certificates.lyapunov_s" "s";
    lo "certificates.level_s" "s";
    hi "certificates.reported_frac" "ratio";
    lo "certificates.lyapunov_constraints" "count";
    lo "certificates.gram_blocks" "count";
    lo "advect.run_frac" "ratio";
    hi "advect.advection_frac" "ratio";
    hi "advect.inclusion_frac" "ratio";
    hi "advect.escape_frac" "ratio";
    lo "advect.iterations" "count";
    lo "advect.escapes" "count";
    lo "exact.reprove_s" "s";
    hi "exact.proven_frac" "ratio";
    lo "sdp.journal_solves" "count";
    hi "sdp.journal_frac" "ratio";
    lo "sdp.level_solves" "count";
    lo "sdp.level_share" "ratio";
    lo "sdp.transport_solves" "count";
    lo "sdp.transport_share" "ratio";
    lo "sdp.bound_solves" "count";
    lo "sdp.bound_share" "ratio";
    lo "sdp.solves" "count";
    lo "sdp.iterations" "count";
    lo "sdp.attempt_s" "s";
    lo "sdp.solve_ms" "ms";
    hi "sdp.warm_attempts" "count";
    hi "sdp.warm_accept_frac" "ratio";
    lo "resilient.attempts" "count";
    lo "resilient.retry_frac" "ratio";
    lo "supervise.overhead_s" "s";
    lo "supervise.forked" "count";
    lo "supervise.pool_tasks" "count";
    hi "supervise.cache_hits" "count";
    lo "supervise.cache_stores" "count";
    lo "supervise.cache_rejects" "count";
    lo "supervise.cache_bytes" "bytes";
    lo "supervise.cache_load_ms" "ms";
    lo "supervise.cache_store_ms" "ms";
    lo "supervise.unjournaled_solves" "count";
    hi "atlas.cells" "count";
    lo "atlas.solves_per_cell" "count";
    hi "atlas.pool_util" "ratio";
    lo "linalg.cholesky_ms" "ms";
    hi "linalg.cholesky_gflops" "GFLOP/s";
  ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit_
  | None -> invalid_arg ("unknown metric " ^ name)

(* [suite check]: does a BENCHMARK.json describe exactly this suite? *)
let check (j : Service.Json.t) =
  let module J = Service.Json in
  let names key =
    match Option.bind (J.member key j) J.arr with
    | None -> Error (Printf.sprintf "BENCHMARK.json has no %S list" key)
    | Some l -> Ok (List.filter_map (J.mem_str "name") l, l)
  in
  let same what ours theirs =
    if ours = theirs then []
    else
      [
        Printf.sprintf "%s differ: suite [%s], BENCHMARK.json [%s]" what
          (String.concat " " ours) (String.concat " " theirs);
      ]
  in
  let metric_rows l =
    List.map
      (fun r ->
        Printf.sprintf "%s:%s:%s"
          (Option.value ~default:"?" (J.mem_str "name" r))
          (Option.value ~default:"?" (J.mem_str "unit" r))
          (Option.value ~default:"?" (J.mem_str "better" r)))
      l
  in
  let ours l = List.map (fun x -> Printf.sprintf "%s:%s:%s" x.name x.unit_ x.better) l in
  match (names "workloads", names "end_to_end", names "per_layer") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> [ e ]
  | Ok (w, _), Ok (_, e2e), Ok (_, layers) ->
      same "workloads" workloads w
      @ same "end_to_end metrics" (ours end_to_end) (metric_rows e2e)
      @ same "per_layer metrics" (ours per_layer) (metric_rows layers)
