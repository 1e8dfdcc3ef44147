(** Deductive certificates for the CP PLL hybrid system: multiple
    Lyapunov functions (Theorem 1), maximized attractive-invariant level
    sets (the paper's second SOS program, via Lemma 1 and bisection) and
    Escape certificates (Proposition 1).

    The attractive invariant produced here is
    [X1 = ∪_q ({V_q <= β} ∩ C_q)]: while flowing in mode [q], [V_q]
    strictly decreases; at a mode switch (identity reset, Remark 1) the
    destination certificate is no larger than the source one on the
    (direction-restricted) switching surface; and the common level [β]
    is maximized subject to each sublevel slice staying strictly inside
    the certified domain box. Together these make [X1] compact,
    forward-invariant and attractive to the lock equilibrium —
    property P1 of the paper. *)

type config = {
  degree : int;  (** certificate degree (paper: 6 for 3rd order, 4 for 4th) *)
  eps_pos : float;  (** positivity margin: [V − eps_pos·‖x‖² ∈ Σ] *)
  eps_decr : float;  (** decrease margin: [−V̇ − eps_decr·‖x‖² ∈ Σ] *)
  robust_vertices : bool;
      (** enforce the decrease condition at every vertex of the scaled
          coefficient box (the flow is affine in the coefficients, so
          vertex feasibility gives the whole box); otherwise only at the
          nominal point *)
  sdp_params : Sdp.params;
  psd_tol : float;
      (** a posteriori Gram PSD tolerance handed to {!Sos.solve} *)
  eq_tol : float;
      (** a posteriori equality-residual tolerance handed to
          {!Sos.solve} *)
  resilience : Resilient.policy;
      (** solve-orchestration policy: retry ladder, deadlines, fault
          plan and failure journal shared by every solve this config
          drives (see {!Resilient}) *)
}

val default_config : Pll.order -> config
(** Paper degrees (6 / 4), margins [1e-2]/[1e-3], nominal parameters,
    tolerances [1e-7]/[1e-5], a fresh {!Resilient.default} policy. *)

(** A multiple-Lyapunov certificate, one polynomial per PFD mode. *)
type t = {
  vs : Poly.t array;
  cfg : config;
  solve_stats : stats;
}

and stats = {
  time_s : float;  (** wall-clock seconds of the SOS/SDP solve *)
  sdp_iterations : int;
  n_constraints : int;  (** scalar equality constraints in the SDP *)
  n_gram_blocks : int;
  min_gram_eig : float;
  max_residual : float;
}

val find_multi_lyapunov : ?config:config -> Pll.scaled -> (t, string) result
(** The paper's first SOS program — constraints (a), (b), (c) of §3 for
    the three PFD modes, with S-procedure domain restrictions and
    direction-restricted switching surfaces. The solve runs under the
    config's {!Resilient} policy: solver failures climb the retry
    ladder; a degraded (salvaged) float solution is accepted only when
    {!validate_exactly} re-proves every condition; with retries enabled
    a failed search is re-run with the strictness margins scaled down
    (0.5×, then 0.25× — the returned [t.cfg] records the margins
    actually certified). On failure the error string carries the
    machine-readable {!Resilient.diagnosis} of the last attempt chain. *)

(** {1 Exact a-posteriori validation}

    Everything above runs in floating point; the results below are
    re-validated in exact rational arithmetic by the {!Exact} kernel. *)

(** Result of {!validate_exactly}: the exact certificates (persistable
    via {!Exact.Artifact}), one verdict per condition, the worst exact
    LDLᵀ margin when everything is proven, and the exact rational
    Lyapunov functions the verdicts are actually about. *)
type exact_validation = {
  artifact : Exact.Artifact.t;
  verdicts : (string * Exact.Check.verdict) list;
  all_proven : bool;
  min_margin : Exact.Rat.t option;
  vs_exact : Exact.Qpoly.t array;
      (** Dyadic embeddings of the float [vs], corner-repaired so the
          switch conditions can bind exactly (see the implementation
          note on [repair_corners]); the proven statement quantifies
          over these polynomials, not the float originals. *)
}

val validate_exactly :
  ?mult_deg:int ->
  ?denom_bits:int ->
  ?slack:float ->
  Pll.scaled ->
  t ->
  (exact_validation, string) result
(** Re-prove the Theorem-1 conditions for a found certificate {e
    exactly}: for each mode, (a) [V_m >= slack·eps_pos·‖x‖²] on the flow
    set, (b) [−V̇_m >= slack·eps_decr·‖x‖²] along the (nominal, or every
    vertex when the certificate was searched robustly) flow, and (c)
    [V_src >= V_dst] on each switching slice. The [V_m] are first
    embedded as exact rationals and corner-repaired (switching surfaces
    force [V_src = V_dst] exactly at the point where the direction
    constraint vanishes; float certificates only match there to solver
    precision), and every target polynomial is built in rational
    arithmetic from the repaired [vs_exact]. Each condition is then
    re-solved as a small multiplier-only SOS program with the
    instantiated [V_m] fixed, and the resulting Gram data is rounded,
    residual-absorbed and checked by {!Exact.Check.certify_q} — the
    verdicts carry no floating-point trust. [slack] (default 0.5) leaves
    the multiplier search room to be strictly feasible; the proven
    margins are [slack] times the searched-for ones. [Error] means a
    re-solve failed structurally; individual failed conditions surface
    as non-[Proven] verdicts instead. *)

val level_margin : float
(** The strict margin of every Lemma-1 program: the slice must keep
    [g >= level_margin] on each containment face [g]. *)

val level_witnesses : Pll.scaled -> t -> (int * float * float array) list
(** Counterexamples to Lemma 1, one per program where the search finds
    one: [(p, v, x)] with [x] in program [p]'s mode domain [D_m], in its
    face's band [0 <= g(x) < level_margin], and [v = V_m(x)] bit for
    bit, so program [p] fails at every level [>= v]. The search bisects
    100 fixed-seed rays from the origin onto each band and refines the
    best by a compass search over the ray direction; it is
    deterministic, and ascending in [p]. *)

val check_level : ?mult_deg:int -> Pll.scaled -> t -> float -> bool
(** One Lemma-1 feasibility check: is every slice
    [{V_q <= β} ∩ slab_q] strictly inside the certified region? A
    numeric prefilter first — the {!level_witnesses}, any of which at
    [V <= β] refutes [β] — then one
    SOS program per (mode, containment constraint) in mode-major order,
    stopping at the first failure. [mult_deg] (default 2) is the
    S-procedure multiplier degree. *)

val maximize_level :
  ?bisect_steps:int -> ?beta_hi:float -> Pll.scaled -> t -> float * stats
(** The paper's second SOS program: largest certified [β] by bisection
    over [[0, beta_hi]] (the product [σ·β] is bilinear, so each step is
    a linear SOS feasibility problem). Each step solves the prefilter
    and only the {e active} Lemma-1 programs of {!check_level} — those
    that have failed at some level, starting with the program the
    prefilter reaches at the lowest [V] (its lowest witness, as a
    rule). A midpoint at or above a witness is refuted without a solve,
    so the returned [β] lies strictly below every
    {!level_witnesses} value. The final level is then confirmed against
    all programs, and a program failing there is activated and the
    bisection replayed (memoized, so only new solves cost). Since each
    program is monotone in [β], the result is the plain bisection's over
    {!check_level}, bit for bit. The returned [β] always passed every
    program. Under a pipeline deadline, steps run
    every program until some level has passed them all (the floor),
    and a stopped walk returns the largest such level reached. Returns
    [0.] if even tiny levels fail. *)

(** An attractive invariant [X1] (Theorem 2): certificate plus maximized
    common level. *)
type attractive_invariant = { cert : t; beta : float; level_stats : stats }

val attractive_invariant :
  ?config:config -> ?bisect_steps:int -> Pll.scaled -> (attractive_invariant, string) result
(** [find_multi_lyapunov] followed by [maximize_level]. *)

val member : Pll.scaled -> attractive_invariant -> float array -> bool
(** Whether a state lies in [X1] (in some mode slice). The partial
    application [member s ai] stages the slabs and certificates once
    ({!Poly.evaluator}); apply it to many states. *)

val upper_bound_on_set :
  ?extra_domain:Poly.t list -> Pll.scaled -> t -> set:Poly.t -> (float, string) result
(** Certified upper bound on [max_q max {V_q(x) | set(x) <= 0, x ∈ C_q}]
    via one small SOS optimization per mode (minimize [u] with
    [u − V_q >= 0] on the region). Since every [V_q] is non-increasing
    along flows and jumps (Theorem 1), [∪_q ({V_q <= bound} ∩ C_q)] then
    contains the whole reach tube of [{set <= 0}] — the certified cap
    used by {!Advect.run}. *)

val time_to_lock_bound :
  ?samples:int -> Pll.scaled -> attractive_invariant -> from_level:float -> float
(** A certified bound on the time to reach the attractive invariant from
    the larger sublevel region [{V_q <= from_level}]: along flows,
    [dV/dt <= −eps_decr·‖x‖²], and outside [X1] the norm is bounded
    below by [r = min ‖x‖ on {V = β}] (estimated by boundary sampling,
    conservative by taking the minimum over [samples] rays), so
    [T <= (from_level − β) / (eps_decr · r²)] — the 'time to locking'
    property of the paper's references [2] and [6], obtained here as a
    corollary of the strict decrease margins. Returns [infinity] when
    the sampling finds no boundary. *)

(** {1 Escape certificates (Proposition 1)} *)

val check_escape :
  ?mult_deg:int ->
  ?eps:float ->
  ?policy:Resilient.policy ->
  nvars:int ->
  flow:Poly.t array ->
  domain:Poly.t list ->
  certificate:Poly.t ->
  unit ->
  bool
(** Proposition 1 with a {e fixed} candidate: certify
    [∂E/∂x · f <= −eps] on the domain for the given [certificate] — a
    multiplier-only SOS feasibility check, far cheaper and more robust
    than the search. Used with [E = V_q], which always escapes the
    advection residual thanks to the strict decrease margin. The check
    is a probe of [policy] (one quiet attempt; default: a fresh
    {!Resilient.default} policy). *)

val find_escape :
  ?deg:int ->
  ?eps:float ->
  ?sdp_params:Sdp.params ->
  ?policy:Resilient.policy ->
  nvars:int ->
  flow:Poly.t array ->
  domain:Poly.t list ->
  unit ->
  (Poly.t * stats, string) result
(** Find [E] with [∂E/∂x · f <= −eps] on the compact semialgebraic
    [domain] — trajectories must leave the set in finite time (at most
    [(sup E − inf E)/eps]). The search climbs [policy]'s retry ladder;
    the default, a probe of a fresh {!Resilient.default} policy, makes
    one quiet attempt. *)

(** {1 Validation and figure extraction} *)

val validate_by_simulation :
  ?trials:int -> ?t_max:float -> ?seed:int -> Pll.scaled -> attractive_invariant -> bool
(** Monte-Carlo soundness check: sample states in [X1], simulate the
    hybrid system, and verify (i) the active certificate never increases
    beyond numerical tolerance and (ii) the trajectory converges to
    lock. *)

val invariant_boundary :
  Pll.scaled -> attractive_invariant -> plane:int * int -> n:int -> (float * float) list
(** Boundary of the attractive invariant [X1 = ∪_q ({V_q <= β} ∩ C_q)]
    itself (the union over modes), sliced in the coordinate plane
    [(i, j)] — the solid sets of Figs. 2–3. Radial bisection on
    {!member}. *)

val level_curve :
  Poly.t -> beta:float -> plane:int * int -> nvars:int -> n:int -> (float * float) list
(** [n] boundary points of the slice [{V = β}] in the coordinate plane
    [(i, j)] (all other coordinates 0), found by radial bisection — the
    series plotted in the paper's Figs. 2–3. Points where the ray never
    reaches [β] within a large radius are omitted. *)
