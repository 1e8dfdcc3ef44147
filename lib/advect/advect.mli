(** Bounded advection of polynomial level sets over the hybrid CP PLL —
    the paper's §2.5 / Eq. 6 / Algorithm 1, verifying property P2
    (reachability of the attractive invariant [X1] from the outer set
    [X2]).

    A {e front} is a polynomial [q] whose 0-sublevel set
    [S(q) = {x | q(x) <= 0}] over-approximates the set of states reachable
    from [X2] at the current time. One advection step finds a new front
    [w] of fixed degree such that, for every PFD mode [m] with flow
    [f_m] on its domain [D_m],

    - {e transport}: [x ∈ S(q) ∩ D_m  ⟹  (T_h^m w)(x) <= −γ], where
      [T_h^m w = w + h·∇w·f_m] is the first-order Taylor pull-back of
      [w] along the flow — so the time-[h] image of the old set lies
      inside the new one with margin [γ];
    - {e tightness}: [q(x) >= ρ ∧ x ∈ D_m  ⟹  (T_h^m w)(x) >= γ] — the
      new set cannot balloon beyond a [ρ]-inflation of the old one;
    - optionally {e truncation}: [|h²/2 · ∇(∇w·f_m)·f_m| <= γ] on [D_m],
      bounding the Taylor remainder so the margin [γ] absorbs it.

    Each constraint is a Lemma-1 / S-procedure SOS condition, linear in
    the unknown [w] for fixed [γ]; [γ] is minimized by bisection exactly
    as the paper does. Algorithm 1 then iterates steps until the front
    is immersed in [X1] (an SOS set-inclusion check per mode), falling
    back to Escape certificates on the residual set when advection
    stalls (the paper's fourth-order case, Fig. 5). *)

(** How the front is pulled back along a mode flow. [Taylor] is the
    paper's first-order transport [w + h·∇w·f] with explicit
    truncation-bound constraints; it needs [h ≲ 1/‖f‖²]. [Exact]
    (default) exploits that the PFD-mode flows are {e affine}: the
    time-[h] flow map [x ↦ e^{Ah}x + c] is computed by an (augmented)
    matrix exponential and composed with the front symbolically, which
    preserves its degree and removes the step-size restriction. The
    residual error — trajectories that change mode mid-step, where the
    continuized field is continuous but not smooth — is [O(h²)] and
    absorbed by the [γ]/[ρ] margins (and checked by
    {!validate_step_by_simulation}). *)
type advection_map = Exact | Taylor

type config = {
  front_deg : int;  (** degree of the advected fronts (default 2) *)
  h : float;  (** advection time step, in scaled time units (default 0.25) *)
  rho : float;
      (** tightness inflation, as a fraction of the front's maximum over
          the verification box (default 2.0; the box-moment objective, not this
          constraint, is what keeps fronts tight) *)
  gamma_max : float;  (** upper end of the γ bisection (default 0.3) *)
  gamma_bisect : int;  (** bisection steps on γ (default 5) *)
  map : advection_map;  (** pull-back discretization (default [Exact]) *)
  check_truncation : bool;
      (** include the paper's Taylor-remainder constraints when
          [map = Taylor] (default true) *)
  mult_deg : int;  (** S-procedure multiplier degree (default 2) *)
  sdp_params : Sdp.params;
  resilience : Resilient.policy;
      (** solve-orchestration policy (deadlines, fault plan, journal);
          advection solves run as probes under it — their failures steer
          the algorithm rather than escalate — while escape-certificate
          searches climb its retry ladder. When the pipeline deadline
          expires, {!run} stops advecting and degrades to escape
          certificates from the last certified front. *)
}

val default_config : config
(** Note: the default config carries one module-level {!Resilient}
    policy shared by every caller that uses it; pipelines wanting an
    isolated journal/deadline should install a fresh policy (as
    Pll_core's inevitability pipeline does through [~resilience]). *)

type step = {
  front : Poly.t;  (** the new front [w] *)
  gamma : float;  (** smallest feasible margin found *)
  time_s : float;
}

val ellipsoid_front : Pll.scaled -> radii:float array -> Poly.t
(** [Σ (x_i / r_i)² − 1] — the solid outer initial set [X2] of the
    paper's figures. *)

val advect_step :
  ?config:config -> ?caps:Poly.t array -> Pll.scaled -> Pll.point -> Poly.t -> (step, string) result
(** One bounded advection step of the front across all three PFD modes:
    a covering-ellipsoid candidate is fitted to the sampled mode-wise
    images of the current set ({e propose}), then the Lemma-1 transport
    condition [w(Φ_m(x)) <= −γ on S(q) ∩ D_m] is certified by SOS with
    the candidate fixed ({e certify}), inflating and retrying on
    failure. Only the certified condition is trusted; the numerics are
    merely a proposal heuristic. [rho] is the initial fit inflation. *)

val advect_step_sos :
  ?config:config -> Pll.scaled -> Pll.point -> Poly.t -> (step, string) result
(** The paper's original formulation: the new front is an {e unknown} of
    a single SOS program combining transport, tightness and (for
    [Taylor]) truncation constraints, with bisection on [γ]. More
    faithful to Eq. 6 but substantially harder on the interior-point
    solver; retained for comparison and ablation. *)

val contained_in_invariant :
  ?mult_deg:int ->
  ?caps:Poly.t array ->
  ?probe_iters:int ->
  Pll.scaled ->
  Certificates.attractive_invariant ->
  Poly.t ->
  bool
(** Line 6 of Algorithm 1: SOS check that
    [S(front) ∩ D_q ⊆ {V_q <= β}] for every mode [q]. [caps] restricts
    the front to the certified reach-tube level cap
    [{V_q <= vmax}] (see {!run}): states of the front outside the cap
    are provably unreachable and need not be contained. [probe_iters]
    (default 60) bounds the interior-point iterations per mode: a
    [true] under any budget is a full certificate, while a tight
    budget can only turn hard feasible instances into conservative
    [false]s — the advection loop polls with a small budget and
    reserves the full one for the decisive final check. *)

val validate_step_by_simulation :
  ?samples:int -> ?seed:int -> Pll.scaled -> Pll.point -> h:float -> old_front:Poly.t -> Poly.t -> bool
(** Numerical soundness check of one step: sample states of the old
    front (per mode), integrate the hybrid flow for time [h], and
    verify the images satisfy [new front <= 0]. *)

(** Result of running Algorithm 1. *)
type run_result = {
  fronts : step list;  (** advected fronts, oldest first *)
  iterations : int;
  converged : bool;  (** front immersed in [X1] by advection alone *)
  escapes : (int * Poly.t) list;
      (** per-mode Escape certificates for the residual set, when
          advection alone was inconclusive (mode index, certificate) *)
  verified : bool;  (** P2 established (advection, or advection+escape) *)
  advect_time_s : float;  (** time in advection SOS programs (Table 2 row 3) *)
  inclusion_time_s : float;  (** time in set-inclusion checks (row 4) *)
  escape_time_s : float;  (** time in escape-certificate search (row 5) *)
  total_time_s : float;
}

val run :
  ?config:config ->
  ?max_iter:int ->
  ?escape_deg:int ->
  Pll.scaled ->
  Certificates.attractive_invariant ->
  init:Poly.t ->
  run_result
(** Algorithm 1: advect [init] until immersed in [X1] or [max_iter]
    (default 20) steps; if a residual remains, search per-mode Escape
    certificates (Proposition 1) on {front <= 0} ∖ int X1. *)
