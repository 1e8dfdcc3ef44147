(** Barrier certificates and disturbance-rejection certificates.

    Two properties from the paper's introduction that sit next to
    inevitability:

    - {b Safety} (start-up problems): "for certain initial states of
      voltages, the circuits do not converge to the desired behaviour" —
      beyond convergence, a start-up transient must also not damage the
      circuit. A {e barrier certificate} in the sense of
      Prajna–Jadbabaie (the paper's reference [11]) proves that no
      trajectory from an initial set [X0] ever reaches an unsafe set
      [Xu]: find [B] with [B <= 0] on [X0], [B > 0] on [Xu], [dB/dt <= 0]
      along every mode flow (and non-increase across the identity
      jumps, automatic here).

    - {b Lock retention under disturbance}: "while in phase-locking
      state and disturbed by an external input, it is important to know
      whether the PLL circuit retains its locking state". We model an
      additive bounded disturbance [d] on the charge-pump current
      ([|d| <= d_max], e.g. supply noise) and certify a sublevel set of
      the multiple-Lyapunov certificate that remains invariant for
      every admissible disturbance — the disturbed flow is affine in
      [d], so the vertex values [±d_max] suffice. *)

type config = {
  degree : int;  (** barrier polynomial degree (default 4) *)
  margin : float;  (** strict separation on the unsafe set (default 1e-2) *)
  mult_deg : int;  (** S-procedure multiplier degree (default 2) *)
  sdp_params : Sdp.params;
  resilience : Resilient.policy;
      (** solve orchestration: the barrier search climbs the retry
          ladder (its failure abandons the safety argument), while the
          reach-cap face checks run as probes (their failure falls back
          to the barrier search). Process isolation, the solve cache
          and crash-safe journaling are inherited through this policy —
          attach a {!Supervise.ctx} with [Resilient.make ~supervise]
          and every barrier solve runs in a supervised worker; no
          barrier-specific wiring is needed. *)
}

val default_config : config

(** How a safety certificate was established. *)
type route =
  | Barrier_function  (** a genuine Prajna–Jadbabaie barrier polynomial [b] *)
  | Reach_cap of float
      (** the unsafe set lies strictly above the certified reach-tube
          level cap [vmax]: [V_q >= vmax + margin] on the unsafe region,
          so it is unreachable; [b] is [V_off − vmax] for reporting *)

type t = {
  b : Poly.t;  (** the barrier polynomial (see {!route}) *)
  via : route;
  stats : Certificates.stats;
}

val find_barrier :
  ?config:config ->
  nvars:int ->
  flows:Poly.t array list ->
  domains:Poly.t list list ->
  init:Poly.t list ->
  unsafe:Poly.t list ->
  unit ->
  (t, string) result
(** Generic hybrid barrier search for modes given as parallel [flows] /
    [domains] lists (identity resets assumed — Remark 1 systems).
    [init] and [unsafe] are semialgebraic sets [{g >= 0}]. On success,
    no trajectory starting in [init] (in any mode whose domain meets it)
    ever reaches [unsafe]. *)

val pll_voltage_safety :
  ?config:config ->
  ?v_limit:float ->
  ?invariant:Certificates.attractive_invariant ->
  Pll.scaled ->
  init_radii:float array ->
  (t, string) result
(** Safety of the start-up transient: from the ellipsoidal start-up set,
    the loop-filter voltages never exceed [v_limit] (default
    [0.96 * w_max], in scaled units), the unsafe set being
    [{ some |w_i| >= v_limit }]. With [invariant] supplied, the
    preferred [Reach_cap] route is tried first: [V_q >= vmax + margin]
    on every unsafe face, where [vmax] is the certified bound of [V] on
    the initial set — the faces are then unreachable. Otherwise (or on
    failure) a genuine barrier function is searched per face; all faces
    must succeed and the last certificate is returned. *)

val validate_barrier_by_simulation :
  ?trials:int ->
  ?t_max:float ->
  ?seed:int ->
  ?invariant:Certificates.attractive_invariant ->
  Pll.scaled ->
  init_radii:float array ->
  t ->
  bool
(** Monte-Carlo check along simulated arcs from the initial set: for a
    [Barrier_function] certificate, [B] never becomes positive; for a
    [Reach_cap vmax] certificate (pass the same [invariant]), the active
    certificate value never exceeds [vmax]. *)

(** {1 Disturbance rejection} *)

type rejection = {
  level : float;  (** certified invariant level [β_d <= β] *)
  d_max : float;  (** disturbance bound the level is certified for *)
  stats : Certificates.stats;
}

val lock_retention :
  ?mult_deg:int ->
  ?bisect_steps:int ->
  Pll.scaled ->
  Certificates.attractive_invariant ->
  d_max:float ->
  (rejection, string) result
(** Largest certified level [β_d <= β] (scanned over a descending grid —
    certifiability is not monotone in the level) such that every slice
    [{V_q <= β_d} ∩ C_q] is invariant for the PLL with pump current
    disturbed by any [|d| <= d_max]: on the boundary [{V_q = β_d}] the
    disturbed Lie derivative is non-positive for both vertex
    disturbances [±d_max]. A PLL that has locked (state in the
    certified set) retains lock under any such disturbance.
    [bisect_steps] (default 0) refines the grid answer: once a grid
    fraction certifies, bisect that many times into the gap up to the
    smallest failed fraction above it, keeping the largest level that
    {e itself} certifies — each probe is verified, so non-monotonicity
    cannot produce an uncertified answer. *)

val max_rejected_disturbance :
  ?mult_deg:int -> ?steps:int -> Pll.scaled -> Certificates.attractive_invariant -> float
(** Largest [d_max] (by doubling/bisection) for which {!lock_retention}
    certifies a positive level. *)
