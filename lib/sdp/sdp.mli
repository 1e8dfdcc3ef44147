(** Semidefinite programming by a primal–dual interior-point method.

    Solves block-diagonal SDPs in the standard primal form

    {v
      minimize    <C, X> + c_f' f
      subject to  <A_i, X> + B_i f = b_i     (i = 1..m)
                  X ⪰ 0 (block-diagonal),  f ∈ R^nf free
    v}

    with the corresponding dual

    {v
      maximize    b' y
      subject to  Σ y_i A_i + S = C,  S ⪰ 0,  B' y = c_f.
    v}

    The implementation is a Mehrotra predictor–corrector using the HKM
    search direction; free variables are handled natively by block
    elimination of the saddle-point Schur system (no difference-of-
    nonnegatives splitting). This is the engine behind the {!Sos}
    relaxation layer; it replaces the external MATLAB/YALMIP solver used
    in the paper.

    Sparsity: constraint matrices are given as upper-triangular entry
    lists; the Schur complement is assembled block-wise exploiting that
    sparsity, so problems with hundreds of constraints over blocks of
    order ≤ 10² solve in milliseconds-to-seconds. *)

type block_entry = { blk : int; row : int; col : int; value : float }
(** One entry of a symmetric block matrix. [row <= col] is required; an
    off-diagonal entry [(row, col, v)] stands for the symmetric pair, so
    its contribution to [<A, X>] is [2 * v * X.(row).(col)]. *)

type constr = {
  lhs : block_entry list;  (** entries of the [A_i] blocks *)
  free : (int * float) list;  (** sparse row [B_i] over the free variables *)
  rhs : float;  (** [b_i] *)
}

type problem = {
  block_dims : int array;  (** orders of the PSD blocks *)
  n_free : int;  (** number of free scalar variables *)
  constraints : constr array;
  obj_blocks : block_entry list;  (** entries of [C] *)
  obj_free : (int * float) list;  (** [c_f] *)
}

type status =
  | Optimal  (** converged to the requested tolerance *)
  | Near_optimal  (** converged to a relaxed tolerance *)
  | Primal_infeasible  (** heuristic certificate of primal infeasibility *)
  | Dual_infeasible  (** heuristic certificate of dual infeasibility *)
  | Max_iterations  (** iteration limit hit before convergence *)
  | Numerical_failure  (** search direction computation broke down *)

type solution = {
  status : status;
  x_blocks : Linalg.Mat.t array;  (** primal blocks [X] *)
  f : Linalg.Vec.t;  (** primal free variables *)
  y : Linalg.Vec.t;  (** dual multipliers *)
  s_blocks : Linalg.Mat.t array;  (** dual slacks [S] *)
  primal_obj : float;
  dual_obj : float;
  gap : float;  (** relative duality gap *)
  primal_res : float;  (** relative primal residual norm *)
  dual_res : float;  (** relative dual residual norm *)
  iterations : int;  (** iterations attempted, on every status including
                         [Numerical_failure] — retry ladders and failure
                         diagnoses read it directly *)
  best_score : float;
      (** smallest [max(gap, primal_res, dual_res)] over all iterates
          seen — the quality of the salvageable best iterate
          ([infinity] when the solve broke before completing one
          iteration) *)
  trace : (int * float * float * float) list;
      (** per-iteration [(iter, gap, primal_res, dual_res)], oldest
          first — the convergence history survives failures, so
          diagnostics never have to re-derive residual norms *)
  injected : int;
      (** number of [on_iteration] interventions (injected faults or
          deadline interrupts) that fired during this solve *)
}

(** Interventions a {!params.on_iteration} callback can request — the
    hook used both by the fault-injection harness ({!Resilient.Faults})
    and by deadline enforcement. *)
type fault =
  | Fail_now  (** abort as if the search direction computation broke
                  down: status [Numerical_failure], current residuals
                  and iteration count reported *)
  | Stop_now  (** stop as if the iteration limit were reached: the best
                  iterate seen is salvaged and classified *)
  | Perturb of float
      (** add deterministic symmetric pseudo-noise of this relative
          magnitude to the primal iterate (Gram noise injection) *)

type params = {
  max_iter : int;  (** default 150 *)
  tol_gap : float;  (** relative gap for [Optimal]; default 1e-8 *)
  tol_res : float;  (** relative residuals for [Optimal]; default 1e-8 *)
  near_factor : float;
      (** [Near_optimal] accepts [near_factor] times looser; default 1e3 *)
  step_frac : float;  (** fraction-to-the-boundary; default 0.98 *)
  init_scale : float;
      (** scales the identity starting point — jittered deterministic
          restarts for the retry ladder; default 1.0 *)
  equilibrate : bool;
      (** Jacobi-equilibrate the block rows/columns before solving and
          map the solution back exactly; default false *)
  on_iteration : (int -> fault option) option;
      (** consulted at the top of every iteration; default [None] *)
  verbose : bool;  (** log per-iteration progress; default false *)
}

val default_params : params

type warm_start
(** A warm-start capsule: a strictly-feasibility-shiftable iterate
    [(X, S, y, f)] from a prior solution, tagged with the
    {!structure_fingerprint} of the problem it came from. Capsules are
    pure data (no closures) and survive [Marshal], so they can be
    shipped to forked workers. *)

val structure_fingerprint : problem -> string
(** Hex digest of the problem's {e shape} only: block dimensions, free
    variable count, and the sparsity pattern (positions, not values) of
    every constraint and the objective. Neighbouring sweep points and
    bisection rungs differ only in entry values, so they share a
    structure fingerprint — the key under which warm-start capsules are
    exchanged. *)

val warm_start_of_solution : problem -> solution -> warm_start option
(** Package a solution of [problem] as a warm-start capsule, or [None]
    when the iterate is unusable (dimension mismatch, non-finite
    entries). *)

val warm_start_structure : warm_start -> string
(** The {!structure_fingerprint} the capsule was recorded under. *)

val solve : ?params:params -> ?warm:warm_start -> problem -> solution
(** Solve the SDP. Never raises on numerical trouble; inspect
    [solution.status]. Raises [Invalid_argument] on malformed input
    (out-of-range indices, [row > col]).

    [warm], when present and matching this problem's
    {!structure_fingerprint}, seeds the interior-point iteration from
    the capsule's iterate shifted strictly inside the cone; a
    mismatched or numerically unsound capsule is silently ignored
    (cold start), so hints can never change what is solvable. Most
    callers should prefer {!Session.solve}, which adds the
    accept-only-[Optimal] fallback discipline. *)

(** Stateful solver sessions: remember the last clean solution per
    problem structure and warm-start subsequent solves of the same
    shape (bisection rungs, sweep continuation). The discipline that
    keeps sessions invisible to callers: a warm attempt runs on a
    reduced iteration budget and is accepted only when [Optimal] —
    anything else triggers a cold re-solve with the caller's exact
    params, so statuses, salvage scores, and failure diagnoses are
    always those of an honest solve. Only clean solutions ([Optimal]
    with no injected faults) are remembered, and jitter rungs
    ([init_scale <> 1.0]) skip hints since they exist to start from a
    {e different} point. *)
module Session : sig
  type t

  type counters = {
    warm_accepted : int;  (** warm attempts that converged and were kept *)
    warm_rejected : int;  (** warm attempts discarded for a cold re-solve *)
    cold_solves : int;  (** solves run cold (no hint, or after rejection) *)
  }

  val create : ?params:params -> unit -> t
  (** Fresh session with no memory. [params] (default {!default_params})
      is the fallback when {!solve} is called without [?params]. *)

  val totals : unit -> counters
  (** Process-wide counter sums across every session — benchmark and
      report accounting (sessions are created deep inside per-phase
      configs, so the global sum is the cheap outside view). *)

  val params : t -> params

  val counters : t -> counters

  val solve : t -> ?hint:warm_start -> ?params:params -> problem -> solution
  (** Solve through the session. The hint used is [?hint] when its
      structure matches the problem, else the session's remembered
      capsule for this structure, else none (cold). The returned
      solution is remembered for future solves when clean. *)

  val hint_for : t -> problem -> warm_start option
  (** The capsule the session would use for this problem, if any —
      callers that dispatch solves to external workers ({!Supervise})
      fetch it here and ship it alongside the problem. *)

  val remember : t -> problem -> solution -> unit
  (** Feed an externally-obtained solution (cache hit, forked worker
      result) into the session's memory; ignored unless clean. *)
end

val canonical_serialization : ?params:params -> problem -> string
(** Canonical, byte-deterministic text form of a solve request: the
    problem data plus every result-relevant solver parameter ([max_iter],
    tolerances, [near_factor], [step_frac], [init_scale], [equilibrate]),
    with floats in exact hexadecimal notation. [on_iteration] and
    [verbose] are excluded — they do not affect what a clean solve
    returns. Two requests serialize identically iff the solver sees
    bit-identical inputs, which makes this the cache key of the
    {!Supervise} content-addressed solve cache. *)

val fingerprint : ?params:params -> problem -> string
(** Hex digest of {!canonical_serialization} — the content address of a
    solve request. *)

val solve_count : unit -> int
(** Process-wide number of {!solve} calls so far in this process; the
    benchmark's counting pass (benchsuite/) reads it with every solve
    run in-process. *)

val iteration_count : unit -> int
(** Process-wide number of interior-point iterations attempted so far in
    this process — the warm-start payoff shows up here even when solve
    counts are unchanged; the benchmark's counting pass (benchsuite/)
    reads it with every solve run in-process. *)

val to_sdpa : problem -> string
(** Serialize the problem in the sparse SDPA format (.dat-s), the lingua
    franca of SDP solvers (CSDP/SDPA/SDPT3) — handy for cross-checking
    this solver against an external one. Free variables are rewritten as
    differences of two nonnegative (1x1-block) variables, the standard
    SDPA encoding. *)

val feasibility_margin : problem -> solution -> float
(** A posteriori check: the largest violation [|<A_i,X>+B_i f − b_i|]
    over all constraints, using the returned (unscaled) solution.
    Independent of the solver's internal scaling, so suitable for sound
    certificate validation. *)
