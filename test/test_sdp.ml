(* Tests for the interior-point SDP solver: analytically solvable problems,
   free-variable handling, and status reporting. *)

module Mat = Linalg.Mat

let check_float = Alcotest.(check (float 1e-5))

let entry blk row col value = { Sdp.blk; row; col; value }

(* min tr X s.t. X_00 = 1, X ⪰ 0 (2x2). Optimal: X = diag(1,0), obj 1. *)
let test_min_trace () =
  let p =
    {
      Sdp.block_dims = [| 2 |];
      n_free = 0;
      constraints = [| { Sdp.lhs = [ entry 0 0 0 1.0 ]; free = []; rhs = 1.0 } |];
      obj_blocks = [ entry 0 0 0 1.0; entry 0 1 1 1.0 ];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  check_float "objective" 1.0 sol.Sdp.primal_obj;
  check_float "X00" 1.0 (Mat.get sol.Sdp.x_blocks.(0) 0 0);
  check_float "X11" 0.0 (Mat.get sol.Sdp.x_blocks.(0) 1 1)

(* LP via 1x1 blocks: min x + y s.t. x + 2y = 3, x,y >= 0. Optimum 1.5. *)
let test_lp_diag () =
  let p =
    {
      Sdp.block_dims = [| 1; 1 |];
      n_free = 0;
      constraints =
        [| { Sdp.lhs = [ entry 0 0 0 1.0; entry 1 0 0 2.0 ]; free = []; rhs = 3.0 } |];
      obj_blocks = [ entry 0 0 0 1.0; entry 1 0 0 1.0 ];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  check_float "objective" 1.5 sol.Sdp.primal_obj;
  check_float "x" 0.0 (Mat.get sol.Sdp.x_blocks.(0) 0 0);
  check_float "y" 1.5 (Mat.get sol.Sdp.x_blocks.(1) 0 0)

(* Smallest eigenvalue via free variable: min -t s.t. X + t I = A, X ⪰ 0.
   At the optimum t = lambda_min(A). *)
let test_min_eig_free_var () =
  let a = Mat.of_arrays [| [| 2.0; 1.0; 0.0 |]; [| 1.0; 3.0; 0.5 |]; [| 0.0; 0.5; 1.5 |] |] in
  let constraints = ref [] in
  for i = 0 to 2 do
    for j = i to 2 do
      (* Off-diagonal entries contribute twice to <A, X>, so use weight 1/2
         to pin X_ij itself. *)
      let w = if i = j then 1.0 else 0.5 in
      let lhs = [ entry 0 i j w ] in
      let free = if i = j then [ (0, 1.0) ] else [] in
      constraints := { Sdp.lhs; free; rhs = Mat.get a i j } :: !constraints
    done
  done;
  let p =
    {
      Sdp.block_dims = [| 3 |];
      n_free = 1;
      constraints = Array.of_list (List.rev !constraints);
      obj_blocks = [];
      obj_free = [ (0, -1.0) ];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  let expected = Mat.min_eig a in
  check_float "lambda_min" expected sol.Sdp.f.(0)

(* Feasibility: X ⪰ 0, tr X = 1 — interior point exists; verify the
   residual check helper agrees. *)
let test_feasibility_margin () =
  let p =
    {
      Sdp.block_dims = [| 3 |];
      n_free = 0;
      constraints =
        [|
          { Sdp.lhs = [ entry 0 0 0 1.0; entry 0 1 1 1.0; entry 0 2 2 1.0 ]; free = []; rhs = 1.0 };
        |];
      obj_blocks = [];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool)
    "solved" true
    (sol.Sdp.status = Sdp.Optimal || sol.Sdp.status = Sdp.Near_optimal);
  Alcotest.(check bool) "margin small" true (Sdp.feasibility_margin p sol < 1e-6)

(* Infeasible problem: x >= 0 (1x1 block) with x = -1. *)
let test_infeasible () =
  let p =
    {
      Sdp.block_dims = [| 1 |];
      n_free = 0;
      constraints = [| { Sdp.lhs = [ entry 0 0 0 1.0 ]; free = []; rhs = -1.0 } |];
      obj_blocks = [];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool)
    "not reported optimal" true
    (sol.Sdp.status <> Sdp.Optimal)

(* Correlation-like bound: X ⪰ 0, diag X = 1 (2x2), maximize X01: optimum 1. *)
let test_correlation () =
  let p =
    {
      Sdp.block_dims = [| 2 |];
      n_free = 0;
      constraints =
        [|
          { Sdp.lhs = [ entry 0 0 0 1.0 ]; free = []; rhs = 1.0 };
          { Sdp.lhs = [ entry 0 1 1 1.0 ]; free = []; rhs = 1.0 };
        |];
      obj_blocks = [ entry 0 0 1 (-1.0) ];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  check_float "X01 = 1" 1.0 (Mat.get sol.Sdp.x_blocks.(0) 0 1)

(* Dual multipliers: min <I,X> s.t. <I,X> = 1 gives y = 1 on the (scaled)
   constraint; verify unscaled multipliers satisfy dual feasibility. *)
let test_dual_feasibility () =
  let p =
    {
      Sdp.block_dims = [| 2 |];
      n_free = 0;
      constraints =
        [| { Sdp.lhs = [ entry 0 0 0 1.0; entry 0 1 1 1.0 ]; free = []; rhs = 1.0 } |];
      obj_blocks = [ entry 0 0 0 1.0; entry 0 1 1 1.0 ];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  check_float "primal = dual" sol.Sdp.primal_obj sol.Sdp.dual_obj;
  (* S = C - y A = (1 - y) I must be PSD with tr(XS) = 0 at optimum. *)
  let y = sol.Sdp.y.(0) in
  Alcotest.(check bool) "y <= 1" true (y <= 1.0 +. 1e-6)

(* Lovász theta of the 5-cycle: the famous value sqrt(5).
   theta(C5) = max <J, X> s.t. tr X = 1, X_ij = 0 for edges ij, X ⪰ 0. *)
let test_lovasz_theta_c5 () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let constraints =
    { Sdp.lhs = List.init 5 (fun i -> entry 0 i i 1.0); free = []; rhs = 1.0 }
    :: List.map (fun (i, j) -> { Sdp.lhs = [ entry 0 i j 1.0 ]; free = []; rhs = 0.0 }) edges
  in
  let all_ones =
    List.concat (List.init 5 (fun i -> List.init (5 - i) (fun k -> entry 0 i (i + k) (-1.0))))
  in
  let p =
    {
      Sdp.block_dims = [| 5 |];
      n_free = 0;
      constraints = Array.of_list constraints;
      obj_blocks = all_ones;
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  Alcotest.(check (float 1e-4)) "theta(C5) = sqrt 5" (sqrt 5.0) (-.sol.Sdp.primal_obj)

(* Random strictly feasible SDPs: generate X0 ≻ 0, random A_i, set
   b = A(X0); the solver must converge with small residuals. *)
let test_random_feasible_battery () =
  let rng = Random.State.make [| 41 |] in
  for trial = 1 to 10 do
    let n = 3 + Random.State.int rng 4 in
    let m = 2 + Random.State.int rng 5 in
    let x0 =
      let b = Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
      Mat.add (Mat.mul b (Mat.transpose b)) (Mat.identity n)
    in
    let mats =
      List.init m (fun _ ->
          Mat.symmetrize (Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0)))
    in
    let constraints =
      List.map
        (fun a ->
          let lhs = ref [] in
          for i = 0 to n - 1 do
            for j = i to n - 1 do
              let v = Mat.get a i j in
              if v <> 0.0 then lhs := entry 0 i j v :: !lhs
            done
          done;
          { Sdp.lhs = !lhs; free = []; rhs = Mat.frob_dot a x0 })
        mats
    in
    let p =
      {
        Sdp.block_dims = [| n |];
        n_free = 0;
        constraints = Array.of_list constraints;
        obj_blocks = [ entry 0 0 0 1.0 ];
        obj_free = [];
      }
    in
    let sol = Sdp.solve p in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d converged" trial)
      true
      (sol.Sdp.status = Sdp.Optimal || sol.Sdp.status = Sdp.Near_optimal);
    Alcotest.(check bool)
      (Printf.sprintf "trial %d feasible" trial)
      true
      (Sdp.feasibility_margin p sol < 1e-5)
  done

(* The returned X must actually be PSD. *)
let test_solution_psd () =
  let p =
    {
      Sdp.block_dims = [| 3 |];
      n_free = 0;
      constraints =
        [| { Sdp.lhs = [ entry 0 0 0 1.0; entry 0 1 1 1.0; entry 0 2 2 1.0 ]; free = []; rhs = 2.0 } |];
      obj_blocks = [ entry 0 0 1 1.0; entry 0 1 2 (-1.0) ];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "X PSD" true (Mat.is_psd ~tol:1e-7 sol.Sdp.x_blocks.(0));
  Alcotest.(check bool) "S PSD" true (Mat.is_psd ~tol:1e-7 sol.Sdp.s_blocks.(0))

(* ------------------------------------------------------------------ *)
(* Failure-status coverage: every status constructor must be reachable
   and correctly classified, and the solution record must stay
   informative (iterations, residuals, trace) on every path — the retry
   ladder and failure diagnoses depend on it.                          *)

(* A small problem that needs ~10 interior-point iterations: theta(C5). *)
let theta_c5_problem () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let constraints =
    { Sdp.lhs = List.init 5 (fun i -> entry 0 i i 1.0); free = []; rhs = 1.0 }
    :: List.map (fun (i, j) -> { Sdp.lhs = [ entry 0 i j 1.0 ]; free = []; rhs = 0.0 }) edges
  in
  let all_ones =
    List.concat (List.init 5 (fun i -> List.init (5 - i) (fun k -> entry 0 i (i + k) (-1.0))))
  in
  {
    Sdp.block_dims = [| 5 |];
    n_free = 0;
    constraints = Array.of_list constraints;
    obj_blocks = all_ones;
    obj_free = [];
  }

(* x >= 0 with x = -1: primal infeasibility certificate. *)
let test_status_primal_infeasible () =
  let p =
    {
      Sdp.block_dims = [| 1 |];
      n_free = 0;
      constraints = [| { Sdp.lhs = [ entry 0 0 0 1.0 ]; free = []; rhs = -1.0 } |];
      obj_blocks = [];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "classified" true (sol.Sdp.status = Sdp.Primal_infeasible);
  Alcotest.(check bool) "iterations reported" true (sol.Sdp.iterations > 0)

(* min -X00 with only X11 pinned: primal unbounded below, dual infeasible. *)
let test_status_dual_infeasible () =
  let p =
    {
      Sdp.block_dims = [| 2 |];
      n_free = 0;
      constraints = [| { Sdp.lhs = [ entry 0 1 1 1.0 ]; free = []; rhs = 1.0 } |];
      obj_blocks = [ entry 0 0 0 (-1.0) ];
      obj_free = [];
    }
  in
  let sol = Sdp.solve p in
  Alcotest.(check bool) "classified" true (sol.Sdp.status = Sdp.Dual_infeasible)

let test_status_max_iterations () =
  let params = { Sdp.default_params with Sdp.max_iter = 2 } in
  let sol = Sdp.solve ~params (theta_c5_problem ()) in
  Alcotest.(check bool) "classified" true (sol.Sdp.status = Sdp.Max_iterations);
  Alcotest.(check int) "stopped at the limit" 2 sol.Sdp.iterations;
  (* The convergence history must survive the failure. *)
  Alcotest.(check int) "trace recorded" 2 (List.length sol.Sdp.trace)

(* A forced Numerical_failure must still report the attempted iteration
   count and finite residual norms — diagnostics never re-derive them. *)
let test_status_numerical_failure () =
  let hook k = if k = 1 then Some Sdp.Fail_now else None in
  let params = { Sdp.default_params with Sdp.on_iteration = Some hook } in
  let sol = Sdp.solve ~params (theta_c5_problem ()) in
  Alcotest.(check bool) "classified" true (sol.Sdp.status = Sdp.Numerical_failure);
  Alcotest.(check int) "iterations on failure" 1 sol.Sdp.iterations;
  Alcotest.(check int) "injection counted" 1 sol.Sdp.injected;
  Alcotest.(check bool) "finite residuals" true
    (Float.is_finite sol.Sdp.primal_res && Float.is_finite sol.Sdp.dual_res
   && Float.is_finite sol.Sdp.gap)

(* Stop_now salvages the best iterate: classified like an iteration-limit
   stop, not a failure. *)
let test_fault_truncation () =
  let hook k = if k = 3 then Some Sdp.Stop_now else None in
  let params = { Sdp.default_params with Sdp.on_iteration = Some hook } in
  let sol = Sdp.solve ~params (theta_c5_problem ()) in
  Alcotest.(check bool) "salvaged, not failed" true
    (sol.Sdp.status = Sdp.Max_iterations || sol.Sdp.status = Sdp.Near_optimal);
  Alcotest.(check int) "stopped where injected" 3 sol.Sdp.iterations;
  Alcotest.(check int) "injection counted" 1 sol.Sdp.injected;
  Alcotest.(check bool) "best iterate scored" true (Float.is_finite sol.Sdp.best_score)

(* Deterministic Gram noise: the injection is counted, the perturbed run
   is reproducible, and heavy noise genuinely derails convergence. *)
let test_fault_noise () =
  let run () =
    let hook k = if k = 2 then Some (Sdp.Perturb 0.5) else None in
    let params = { Sdp.default_params with Sdp.on_iteration = Some hook } in
    Sdp.solve ~params (theta_c5_problem ())
  in
  let sol = run () and sol' = run () in
  Alcotest.(check int) "injection counted" 1 sol.Sdp.injected;
  Alcotest.(check bool) "survived past the injection" true (sol.Sdp.iterations >= 2);
  Alcotest.(check bool) "heavy noise prevents Optimal" true (sol.Sdp.status <> Sdp.Optimal);
  Alcotest.(check bool) "deterministic replay" true
    (sol.Sdp.status = sol'.Sdp.status && sol.Sdp.iterations = sol'.Sdp.iterations)

(* Jacobi equilibration: a badly scaled problem (1e6 vs 1e-5 rows) must
   solve to Optimal and map back to a feasible unscaled solution. *)
let test_equilibration () =
  let p =
    {
      Sdp.block_dims = [| 2 |];
      n_free = 0;
      constraints =
        [|
          { Sdp.lhs = [ entry 0 0 0 1e6 ]; free = []; rhs = 1e6 };
          { Sdp.lhs = [ entry 0 1 1 1e-5 ]; free = []; rhs = 1e-5 };
        |];
      obj_blocks = [ entry 0 0 1 (-1.0) ];
      obj_free = [];
    }
  in
  let params = { Sdp.default_params with Sdp.equilibrate = true } in
  let sol = Sdp.solve ~params p in
  Alcotest.(check bool) "solved" true (sol.Sdp.status = Sdp.Optimal);
  Alcotest.(check bool) "feasible in ORIGINAL scaling" true
    (Sdp.feasibility_margin p sol < 1e-5);
  check_float "X01 recovered" 1.0 (Mat.get sol.Sdp.x_blocks.(0) 0 1)

(* ------------------------------------------------------------------ *)
(* Stateful sessions: warm/cold agreement, fingerprint discipline, and
   the mismatch fallback that keeps hints invisible to callers. *)

(* A one-parameter family sharing one structure: extract lambda_min of
   A(t) = A + t*B via a free variable. Every member has the same sparsity
   pattern (only values move), so they share a structure fingerprint. *)
let eig_family t =
  let a =
    Mat.of_arrays
      [|
        [| 2.0 +. t; 1.0 -. (0.3 *. t); 0.2 |];
        [| 1.0 -. (0.3 *. t); 3.0 +. (0.5 *. t); 0.5 |];
        [| 0.2; 0.5; 1.5 +. (0.2 *. t) |];
      |]
  in
  let constraints = ref [] in
  for i = 0 to 2 do
    for j = i to 2 do
      let w = if i = j then 1.0 else 0.5 in
      let lhs = [ entry 0 i j w ] in
      let free = if i = j then [ (0, 1.0) ] else [] in
      constraints := { Sdp.lhs; free; rhs = Mat.get a i j } :: !constraints
    done
  done;
  ( a,
    {
      Sdp.block_dims = [| 3 |];
      n_free = 1;
      constraints = Array.of_list (List.rev !constraints);
      obj_blocks = [];
      obj_free = [ (0, -1.0) ];
    } )

(* Sweeping the family through one session must agree with cold solves:
   same statuses, same objectives — the accept-only-Optimal discipline
   makes warm starts unobservable except in the counters. *)
let test_session_warm_vs_cold () =
  let sess = Sdp.Session.create () in
  List.iter
    (fun t ->
      let a, p = eig_family t in
      let cold = Sdp.solve p in
      let warm = Sdp.Session.solve sess p in
      Alcotest.(check bool) "both Optimal" true
        (cold.Sdp.status = Sdp.Optimal && warm.Sdp.status = Sdp.Optimal);
      check_float "objective agrees" cold.Sdp.primal_obj warm.Sdp.primal_obj;
      check_float "lambda_min" (Mat.min_eig a) warm.Sdp.f.(0))
    [ 0.0; 0.05; 0.1; 0.15; 0.2 ];
  let c = Sdp.Session.counters sess in
  Alcotest.(check int) "every solve accounted" 5 (c.Sdp.Session.warm_accepted + c.Sdp.Session.cold_solves);
  Alcotest.(check bool) "continuation actually warm" true (c.Sdp.Session.warm_accepted >= 2)

(* The structure fingerprint ignores values (family members share it) and
   capsules are keyed by it; the cache fingerprint is a pure function of
   the problem, identical whether the solve that produced it was warm. *)
let test_fingerprint_hint_invariance () =
  let _, p0 = eig_family 0.0 in
  let _, p1 = eig_family 0.25 in
  Alcotest.(check string) "family shares structure" (Sdp.structure_fingerprint p0)
    (Sdp.structure_fingerprint p1);
  let full0 = Sdp.fingerprint p0 in
  let sol0 = Sdp.solve p0 in
  let w = Option.get (Sdp.warm_start_of_solution p0 sol0) in
  Alcotest.(check string) "capsule keyed by structure" (Sdp.structure_fingerprint p0)
    (Sdp.warm_start_structure w);
  let _warm = Sdp.solve ~warm:w p1 in
  Alcotest.(check string) "cache fingerprint unmoved by hints" full0 (Sdp.fingerprint p0);
  Alcotest.(check bool) "value changes do move the cache key" true
    (Sdp.fingerprint p0 <> Sdp.fingerprint p1)

(* A hint whose structure does not match the problem must be ignored:
   the solve falls back to cold and still succeeds. *)
let test_session_structure_mismatch_cold () =
  let sess = Sdp.Session.create () in
  let _, pa = eig_family 0.0 in
  let _ = Sdp.Session.solve sess pa in
  let hint = Option.get (Sdp.Session.hint_for sess pa) in
  (* Structurally different: the 2-block LP from test_lp_diag. *)
  let pb =
    {
      Sdp.block_dims = [| 1; 1 |];
      n_free = 0;
      constraints =
        [| { Sdp.lhs = [ entry 0 0 0 1.0; entry 1 0 0 2.0 ]; free = []; rhs = 3.0 } |];
      obj_blocks = [ entry 0 0 0 1.0; entry 1 0 0 1.0 ];
      obj_free = [];
    }
  in
  let before = Sdp.Session.counters sess in
  let sol = Sdp.Session.solve sess ~hint pb in
  let after = Sdp.Session.counters sess in
  Alcotest.(check bool) "solved despite bogus hint" true (sol.Sdp.status = Sdp.Optimal);
  check_float "objective" 1.5 sol.Sdp.primal_obj;
  Alcotest.(check int) "fell back cold" (before.Sdp.Session.cold_solves + 1)
    after.Sdp.Session.cold_solves;
  Alcotest.(check int) "no warm attempt on mismatch" before.Sdp.Session.warm_accepted
    after.Sdp.Session.warm_accepted

(* A solution obtained outside the session (a cache hit or a supervised
   worker's answer) feeds back via [remember] and warms the next
   same-structure solve. *)
let test_session_remember () =
  let _, p0 = eig_family 0.0 in
  let sol0 = Sdp.solve p0 in
  let sess = Sdp.Session.create () in
  Sdp.Session.remember sess p0 sol0;
  let a1, p1 = eig_family 0.1 in
  let sol1 = Sdp.Session.solve sess p1 in
  Alcotest.(check bool) "solved" true (sol1.Sdp.status = Sdp.Optimal);
  check_float "lambda_min" (Mat.min_eig a1) sol1.Sdp.f.(0);
  let c = Sdp.Session.counters sess in
  Alcotest.(check int) "remembered solution warmed the solve" 1 c.Sdp.Session.warm_accepted;
  Alcotest.(check int) "no cold solve needed" 0 c.Sdp.Session.cold_solves

(* --- Cache keys ------------------------------------------------------ *)

(* The serializers as they were written with Printf, kept as oracles:
   the direct writers in Sdp must produce these bytes, so cache entries
   and structure keys made by either stay interchangeable. *)
let printf_serialization ?(params = Sdp.default_params) (p : Sdp.problem) =
  let buf = Buffer.create 4096 in
  let adds = Buffer.add_string buf in
  adds "pll-sdp-problem v1\nblocks";
  Array.iter (fun d -> adds (Printf.sprintf " %d" d)) p.Sdp.block_dims;
  adds (Printf.sprintf "\nfree %d\n" p.Sdp.n_free);
  let add_entries tag entries =
    adds tag;
    List.iter
      (fun e ->
        adds (Printf.sprintf " %d:%d:%d:%h" e.Sdp.blk e.Sdp.row e.Sdp.col e.Sdp.value))
      entries;
    Buffer.add_char buf '\n'
  in
  Array.iter
    (fun c ->
      add_entries "A" c.Sdp.lhs;
      adds "B";
      List.iter (fun (k, v) -> adds (Printf.sprintf " %d:%h" k v)) c.Sdp.free;
      adds (Printf.sprintf "\nb %h\n" c.Sdp.rhs))
    p.Sdp.constraints;
  add_entries "C" p.Sdp.obj_blocks;
  adds "cf";
  List.iter (fun (k, v) -> adds (Printf.sprintf " %d:%h" k v)) p.Sdp.obj_free;
  adds
    (Printf.sprintf "\nparams %d %h %h %h %h %h %b\n" params.Sdp.max_iter params.Sdp.tol_gap
       params.Sdp.tol_res params.Sdp.near_factor params.Sdp.step_frac params.Sdp.init_scale
       params.Sdp.equilibrate);
  Buffer.contents buf

let printf_structure_fingerprint (p : Sdp.problem) =
  let buf = Buffer.create 2048 in
  let adds = Buffer.add_string buf in
  adds "pll-sdp-structure v1\nblocks";
  Array.iter (fun d -> adds (Printf.sprintf " %d" d)) p.Sdp.block_dims;
  adds (Printf.sprintf "\nfree %d\n" p.Sdp.n_free);
  Array.iter
    (fun c ->
      adds "A";
      List.iter
        (fun e -> adds (Printf.sprintf " %d:%d:%d" e.Sdp.blk e.Sdp.row e.Sdp.col))
        c.Sdp.lhs;
      adds "\nB";
      List.iter (fun (k, _) -> adds (Printf.sprintf " %d" k)) c.Sdp.free;
      Buffer.add_char buf '\n')
    p.Sdp.constraints;
  adds "C";
  List.iter
    (fun e -> adds (Printf.sprintf " %d:%d:%d" e.Sdp.blk e.Sdp.row e.Sdp.col))
    p.Sdp.obj_blocks;
  adds "\ncf";
  List.iter (fun (k, _) -> adds (Printf.sprintf " %d" k)) p.Sdp.obj_free;
  Buffer.add_char buf '\n';
  Digest.to_hex (Digest.string (Buffer.contents buf))

let hex_of x =
  let b = Buffer.create 32 in
  Sdp.add_hex_float b x;
  Buffer.contents b

(* Random bit patterns, weighted towards the exponent fields where %h
   has special cases: zero/subnormal (exponent 0) and inf/nan (0x7ff),
   both signs. *)
let float_bits_gen =
  let open QCheck.Gen in
  let word = map2 (fun hi lo -> Int64.(logor (shift_left (of_int hi) 32) (of_int lo)))
      (int_bound 0xffff_ffff) (int_bound 0xffff_ffff)
  in
  let with_exponent e =
    map
      (fun w -> Int64.(logor (logand w 0x800f_ffff_ffff_ffffL) (shift_left (of_int e) 52)))
      word
  in
  let keep_sign mask = map (fun w -> Int64.logand w mask) word in
  frequency
    [
      (6, word);
      (2, with_exponent 0);
      (2, with_exponent 0x7ff);
      (1, keep_sign 0x8000_0000_0000_0000L);
      (1, keep_sign 0x8000_0000_0000_000fL);
      (1, map (fun w -> Int64.logand w 0xfff0_0000_0000_0000L) word);
    ]
  |> map Int64.float_of_bits

let test_hex_float_specials () =
  List.iter
    (fun x -> Alcotest.(check string) (Printf.sprintf "%h" x) (Printf.sprintf "%h" x) (hex_of x))
    [
      0.0; -0.0; 1.0; -1.0; 0.1; 1e300; -3.5e-7; 4.9e-324; -4.9e-324; Float.min_float;
      Float.max_float; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
      Int64.float_of_bits 0x7ff0_0000_0000_0001L; Int64.float_of_bits 0xfff8_0000_0000_0000L;
    ]

let prop_hex_float_is_printf =
  QCheck.Test.make ~name:"add_hex_float writes the bytes of %h" ~count:5000
    (QCheck.make ~print:(fun x -> Printf.sprintf "bits %Lx" (Int64.bits_of_float x))
       float_bits_gen)
    (fun x -> String.equal (hex_of x) (Printf.sprintf "%h" x))

(* Small problems with awkward values: indices and shapes are random but
   well formed, values are random bit patterns. *)
let problem_gen =
  let open QCheck.Gen in
  let* dims = array_size (int_range 1 3) (int_range 1 3) in
  let* n_free = int_bound 2 in
  let entry_gen =
    let* blk = int_bound (Array.length dims - 1) in
    let* row = int_bound (dims.(blk) - 1) in
    let* col = int_range row (dims.(blk) - 1) in
    let* value = float_bits_gen in
    return { Sdp.blk; row; col; value }
  in
  let free_gen =
    if n_free = 0 then return []
    else list_size (int_bound 2) (pair (int_bound (n_free - 1)) float_bits_gen)
  in
  let constr_gen =
    let* lhs = list_size (int_bound 3) entry_gen in
    let* free = free_gen in
    let* rhs = float_bits_gen in
    return { Sdp.lhs; free; rhs }
  in
  let* constraints = array_size (int_bound 3) constr_gen in
  let* obj_blocks = list_size (int_bound 3) entry_gen in
  let* obj_free = free_gen in
  let* max_iter = int_bound 300 in
  let* tol_gap = float_bits_gen in
  let* equilibrate = bool in
  return
    ( { Sdp.block_dims = dims; n_free; constraints; obj_blocks; obj_free },
      { Sdp.default_params with Sdp.max_iter; tol_gap; equilibrate } )

let prop_serialization_is_printf =
  QCheck.Test.make ~name:"cache and structure keys match the Printf serializers" ~count:500
    (QCheck.make ~print:(fun (p, params) -> printf_serialization ~params p) problem_gen)
    (fun (p, params) ->
      String.equal (Sdp.canonical_serialization ~params p) (printf_serialization ~params p)
      && String.equal (Sdp.fingerprint ~params p)
           (Digest.to_hex (Digest.string (printf_serialization ~params p)))
      && String.equal (Sdp.structure_fingerprint p) (printf_structure_fingerprint p))

(* A literal cache key: any change to the key format — and so to which
   run dirs and result stores resume — fails here. *)
let test_fingerprint_pinned () =
  let subnormal = Int64.float_of_bits 0x000f_0000_0000_00a5L in
  let p =
    {
      Sdp.block_dims = [| 2; 1 |];
      n_free = 2;
      constraints =
        [|
          {
            Sdp.lhs = [ entry 0 0 0 (-0.0); entry 0 0 1 subnormal; entry 1 0 0 1e300 ];
            free = [ (0, -3.5e-7); (1, 1.0) ];
            rhs = 1.0;
          };
          { Sdp.lhs = [ entry 0 1 1 (-3.5e-7) ]; free = [ (1, -0.0) ]; rhs = -1e300 };
        |];
      obj_blocks = [ entry 0 0 0 1.0; entry 1 0 0 (-.subnormal) ];
      obj_free = [ (0, 0.1); (1, 4.9e-324) ];
    }
  in
  Alcotest.(check string) "default params" "e09579c502826409399ed84b511048d7"
    (Sdp.fingerprint p);
  Alcotest.(check string) "non-default params" "b90aeb9024d508674734c7b656578e3f"
    (Sdp.fingerprint
       ~params:{ Sdp.default_params with Sdp.max_iter = 7; equilibrate = false; tol_gap = -0.0 }
       p)

(* Five one-block components (every constraint touches one block) whose
   free variables span several of them: t0 blocks 0-1, t1 blocks 1-3 (a
   -0 coefficient on block 3), t2 blocks 2-3 (a repeated index there, the
   last value standing), t3 block 2; block 4 has none. *)
let multi_component_free () =
  let pin b (a : float array array) free_of =
    let n = Array.length a in
    List.concat
      (List.init n (fun i ->
           List.init (n - i) (fun d ->
               let j = i + d in
               {
                 Sdp.lhs = [ entry b i j (if i = j then 1.0 else 0.5) ];
                 free = free_of i j;
                 rhs = a.(i).(j);
               })))
  in
  let diag f i j = if i = j then f else [] in
  let constraints =
    pin 0 [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] (diag [ (0, 1.0) ])
    @ pin 1 [| [| 4.0; 0.5 |]; [| 0.5; 2.0 |] |] (diag [ (0, 0.5); (1, 1.0) ])
    @ pin 2
        [| [| 3.0; 0.2; 0.1 |]; [| 0.2; 2.5; 0.3 |]; [| 0.1; 0.3; 2.0 |] |]
        (fun i j ->
          if i = j then [ (1, 1.0); (2, -1.0) ] else if (i, j) = (0, 1) then [ (3, 0.25) ] else [])
    @ pin 3 [| [| 1.5; -0.4 |]; [| -0.4; 2.0 |] |]
        (fun i j ->
          match (i, j) with
          | 0, 0 -> [ (2, 1.0) ]
          | 0, 1 -> [ (1, -0.0) ]
          | _ -> [ (2, 5.0); (2, 1.0) ])
    @ pin 4 [| [| 1.0 |] |] (fun _ _ -> [])
  in
  {
    Sdp.block_dims = [| 2; 2; 3; 2; 1 |];
    n_free = 4;
    constraints = Array.of_list constraints;
    obj_blocks = [ entry 4 0 0 1.0 ];
    obj_free = [ (0, -1.0); (1, -1.0); (2, -1.0); (3, 0.1) ];
  }

(* MD5 over the [%h] bits of X, y and f. *)
let solution_digest (sol : Sdp.solution) =
  let b = Buffer.create 4096 in
  let add x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  Array.iter (fun (m : Mat.t) -> Array.iter add m.Mat.data) sol.Sdp.x_blocks;
  Array.iter add sol.Sdp.y;
  Array.iter add sol.Sdp.f;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The solution bits, pinned from the dense free-variable block: the
   sparse one must add every term in the same order. *)
let test_free_block_pinned () =
  let sol = Sdp.solve (multi_component_free ()) in
  Alcotest.(check bool) "optimal" true (sol.Sdp.status = Sdp.Optimal);
  Alcotest.(check int) "iterations" 11 sol.Sdp.iterations;
  Alcotest.(check string) "solution bits" "6c404fdd49ba322f37fd9a363a86e08e" (solution_digest sol)

(* The dense fold the free-variable products used before they went
   sparse ([Mat.mul_vec] over a dense B), kept as the oracle. *)
let dense_fold (a : float array array) v =
  Array.map
    (fun row ->
      let s = ref 0.0 in
      Array.iteri (fun j aij -> s := !s +. (aij *. v.(j))) row;
      !s)
    a

(* A random sparse matrix, dense (structural zeros are +0) and as sparse
   rows and columns: each listed entry is a random value, +0 or -0. *)
let sparse_gen =
  let open QCheck.Gen in
  let* rows = int_range 1 6 and* cols = int_range 1 6 in
  let value =
    frequency [ (4, float_range (-4.0) 4.0); (1, return 0.0); (1, return (-0.0)) ]
  in
  let* cells = array_repeat (rows * cols) (opt ~ratio:0.4 value) in
  let cell i j = cells.((i * cols) + j) in
  let dense = Array.init rows (fun i -> Array.init cols (fun j -> Option.value (cell i j) ~default:0.0)) in
  let line n at =
    let idx = List.filter (fun k -> at k <> None) (List.init n Fun.id) |> Array.of_list in
    (idx, Array.map (fun k -> Option.get (at k)) idx)
  in
  return
    ( dense,
      Array.init rows (fun i -> line cols (cell i)),
      Array.init cols (fun j -> line rows (fun i -> cell i j)) )

(* Mostly finite vectors; now and then an infinity or a NaN, where the
   dense fold's structural zeros turn into NaN terms. *)
let vector_gen n =
  let open QCheck.Gen in
  array_repeat n
    (frequency
       [
         (20, float_range (-10.0) 10.0);
         (2, return 0.0);
         (2, return (-0.0));
         (1, oneofl [ Float.infinity; Float.neg_infinity; Float.nan ]);
       ])

(* Equal bits, any NaN matching any NaN: which operand's payload a NaN
   sum carries depends on how the compiler orders a commutative
   instruction's registers, not on the source. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         (Float.is_nan x && Float.is_nan y)
         || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prop_sparse_products_dense =
  let open QCheck.Gen in
  let gen =
    let* dense, rows, cols = sparse_gen in
    let* f = vector_gen (Array.length cols) and* y = vector_gen (Array.length rows) in
    return (dense, rows, cols, f, y)
  in
  QCheck.Test.make ~name:"sparse B f and B' y equal the dense fold bit for bit" ~count:2000
    (QCheck.make
       ~print:(fun (dense, _, _, f, y) ->
         let vec v = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") v)) in
         Printf.sprintf "B = [%s]\nf = %s\ny = %s"
           (String.concat "; " (Array.to_list (Array.map vec dense)))
           (vec f) (vec y))
       gen) (fun (dense, rows, cols, f, y) ->
      let transpose =
        Array.init (Array.length cols) (fun j -> Array.map (fun row -> row.(j)) dense)
      in
      same_bits (Sdp.sparse_mul rows f) (dense_fold dense f)
      && same_bits (Sdp.sparse_mul cols y) (dense_fold transpose y))

let suite =
  [
    Alcotest.test_case "status: primal infeasible" `Quick test_status_primal_infeasible;
    Alcotest.test_case "status: dual infeasible" `Quick test_status_dual_infeasible;
    Alcotest.test_case "status: max iterations" `Quick test_status_max_iterations;
    Alcotest.test_case "status: numerical failure" `Quick test_status_numerical_failure;
    Alcotest.test_case "fault: truncation salvages" `Quick test_fault_truncation;
    Alcotest.test_case "fault: deterministic noise" `Quick test_fault_noise;
    Alcotest.test_case "equilibration" `Quick test_equilibration;
    Alcotest.test_case "lovasz theta of C5" `Quick test_lovasz_theta_c5;
    Alcotest.test_case "random feasible battery" `Quick test_random_feasible_battery;
    Alcotest.test_case "solution PSD" `Quick test_solution_psd;
    Alcotest.test_case "min trace with equality" `Quick test_min_trace;
    Alcotest.test_case "LP via 1x1 blocks" `Quick test_lp_diag;
    Alcotest.test_case "min eigenvalue via free variable" `Quick test_min_eig_free_var;
    Alcotest.test_case "feasibility margin" `Quick test_feasibility_margin;
    Alcotest.test_case "infeasible detection" `Quick test_infeasible;
    Alcotest.test_case "correlation bound" `Quick test_correlation;
    Alcotest.test_case "dual feasibility" `Quick test_dual_feasibility;
    Alcotest.test_case "session: warm agrees with cold" `Quick test_session_warm_vs_cold;
    Alcotest.test_case "session: fingerprints ignore hints" `Quick
      test_fingerprint_hint_invariance;
    Alcotest.test_case "session: mismatched hint falls back cold" `Quick
      test_session_structure_mismatch_cold;
    Alcotest.test_case "session: remember warms" `Quick test_session_remember;
    Alcotest.test_case "cache key: %h special values" `Quick test_hex_float_specials;
    QCheck_alcotest.to_alcotest prop_hex_float_is_printf;
    QCheck_alcotest.to_alcotest prop_serialization_is_printf;
    Alcotest.test_case "cache key: pinned fingerprint" `Quick test_fingerprint_pinned;
    Alcotest.test_case "free-variable block: pinned solution" `Quick test_free_block_pinned;
    QCheck_alcotest.to_alcotest prop_sparse_products_dense;
  ]
