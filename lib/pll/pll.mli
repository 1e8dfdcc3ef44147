(** Behavioural charge-pump PLL models (third and fourth order).

    The model follows Section 2.2 of the paper. A CP PLL consists of a
    phase-frequency detector (PFD), charge pump (CP), loop filter (LF)
    and voltage-controlled oscillator (VCO). The PFD is the non-linear
    element, modelled as a three-mode piecewise inclusion (Eq. 2):

    - mode 1 / {!off}: UP=0, DOWN=0 — pump current 0;
    - mode 2 / {!up}: UP=1, DOWN=0 — pump current in [+Ip⁻, +Ip⁺];
    - mode 3 / {!down}: UP=0, DOWN=1 — pump current in [−Ip⁺, −Ip⁻].

    Following Remark 1 of the paper, the state uses the phase difference
    [θ = (φ_ref − φ_vco)/2π] instead of the individual phases, which
    makes every jump map the identity.

    {2 Scaling}

    The raw Table-1 parameters span 15 orders of magnitude (pF vs MHz),
    which no interior-point solver survives. We non-dimensionalise:
    time by [τ = R·C2], voltages by a scale [v0] chosen so the plotted
    state ranges are O(1) (see DESIGN.md §6). The scaled third-order
    flow in mode [m] is

    {v
      ẇ1 = α (w2 − w1)              α = C2/C1
      ẇ2 = (w1 − w2) + ι_m          ι = Ip·R / v0
      θ̇  = −κ w2                    κ = R·C2·Kv·v0 / 2π
    v}

    and the fourth order adds a second RC stage [R2, C3] before the VCO:

    {v
      ẇ1 = α (w2 − w1)
      ẇ2 = (w1 − w2) + ρ (w3 − w2) + ι_m     ρ = R/R2
      ẇ3 = β (w2 − w3)                       β = R·C2/(R2·C3)
      θ̇  = −κ w3
    v}

    All coefficients are intervals induced by Table 1's parameter
    intervals. The equilibrium (phase lock: [f_vco = f_ref], zero pump
    activity) is the origin. *)

type order = Third | Fourth

(** Raw circuit parameters, physical units (Table 1 of the paper). *)
type raw = {
  order : order;
  c1 : Interval.t;  (** F *)
  c2 : Interval.t;  (** F *)
  c3 : Interval.t option;  (** F; fourth order only *)
  r : Interval.t;  (** Ω *)
  r2 : Interval.t option;  (** Ω; fourth order only *)
  f_ref : float;  (** reference frequency, Hz *)
  f_q : float;  (** VCO free-running frequency, Hz *)
  i_p : Interval.t;  (** charge-pump current, A *)
  k_v : Interval.t;  (** VCO gain, rad/s per volt *)
}

val table1_third : raw
(** Third-order column of Table 1. *)

val table1_fourth : raw
(** Fourth-order column of Table 1. *)

(** {1 Parameterized problem construction}

    The sweep driver ({!Atlas}) certifies lock ranges over boxes of
    circuit parameters. An {!axis} names one sweepable Table-1
    parameter; {!set_axis_relative} rebuilds a [raw] model with that
    parameter's interval replaced by a box given in {e relative} units —
    multiples of the Table-1 nominal (interval midpoint) — so grid specs
    are order-independent ("pump current from 0.8× to 1.2× nominal"). *)

type axis = Ip | R | C1 | C2 | C3 | R2 | Kv

val axes : axis list
(** All axes, in canonical order. *)

val axis_name : axis -> string
(** Lower-case spec name: [ip], [r], [c1], [c2], [c3], [r2], [kv]. *)

val axis_of_string : string -> (axis, string) result

val axis_interval : raw -> axis -> Interval.t option
(** The parameter interval an axis addresses, or [None] when the axis
    does not exist at this order ([C3]/[R2] on a third-order model). *)

val axis_nominal : raw -> axis -> float option
(** Midpoint of {!axis_interval} — the Table-1 nominal the relative
    units of {!set_axis_relative} are multiples of. *)

val set_axis_relative : raw -> axis -> lo:float -> hi:float -> (raw, string) result
(** [set_axis_relative raw a ~lo ~hi] replaces axis [a]'s interval with
    [[lo·m, hi·m]] where [m] is the Table-1 nominal of [a]. [Error] when
    the axis does not exist at this order, when [lo > hi], or when the
    factors are not strictly positive (a zero or negative circuit
    parameter has no physical meaning and breaks the scaling). *)

(** Non-dimensionalised model coefficients (intervals over the Table-1
    box) plus the verification domain bounds. *)
type scaled = {
  order : order;
  nvars : int;  (** 3 (w1,w2,θ) or 4 (w1,w2,w3,θ) *)
  alpha : Interval.t;
  rho : Interval.t;  (** 1 for third order *)
  beta : Interval.t;  (** 1 for third order *)
  iota : Interval.t;
  kappa : Interval.t;
  v0 : float;  (** volts per scaled voltage unit *)
  t0 : float;  (** seconds per scaled time unit *)
  theta_on : float;  (** |θ| at which the pump engages *)
  theta_max : float;  (** domain bound on |θ| *)
  w_max : float;  (** domain bound on each voltage *)
}

val scale : raw -> scaled
(** Non-dimensionalise; see module doc. *)

(** A single coefficient point inside the {!scaled} interval box. *)
type point = { alpha : float; rho : float; beta : float; iota : float; kappa : float }

val nominal : scaled -> point
(** Interval midpoints. *)

val vertices : scaled -> point list
(** Corner points of the coefficient box (for robust vertex checks: the
    flow is affine in the coefficients, so Lie-derivative conditions on
    the box reduce to its vertices). *)

(** {1 Mode structure} *)

val off : int
(** Mode 1 of the paper (UP=0, DOWN=0): index 0. *)

val up : int
(** Mode 2 (UP=1): index 1. *)

val down : int
(** Mode 3 (DOWN=1): index 2. *)

val n_modes : int

val mode_name : int -> string

val theta_index : scaled -> int
(** Index of the phase-difference state (last). *)

val flow : scaled -> point -> int -> Poly.t array
(** [flow s p m] is the polynomial vector field of mode [m] at
    coefficient point [p]. *)

val mode_theta_range : scaled -> int -> float * float
(** [(lo, hi)]: mode [m]'s θ-slab [lo <= θ <= hi] — [[−theta_on,
    theta_on]] for {!off}, [[theta_on, theta_max]] for {!up},
    [[−theta_max, −theta_on]] for {!down}. {!mode_domain} encodes it as
    one quadratic, and the advection sampler draws inside it. *)

val mode_domain : scaled -> int -> Poly.t list
(** Flow-set inequalities [g(x) >= 0] of a mode, including the
    verification box bounds [|w_i| <= w_max]. *)

val containment_constraints : scaled -> int -> Poly.t list
(** The subset of {!mode_domain} constraints through which trajectories
    must {e not} exit (the voltage box everywhere; additionally the
    [|θ| <= theta_max] faces of the saturated modes — the [θ = ±theta_on]
    faces are legitimate exits via mode switches). Attractive-invariant
    level sets must stay strictly inside these. *)

val switching_surfaces : scaled -> (int * int * Poly.t * Poly.t list) list
(** [(src, dst, h, dir)] with the jump surface [{h = 0}] restricted to
    the half-surface [{d >= 0 for d in dir}] where the flow actually
    crosses from [src] into [dst] (e.g. [off → up] only fires where
    [θ̇ >= 0], i.e. where the VCO voltage is non-positive); resets are
    the identity (Remark 1). *)

val hybrid_system : scaled -> point -> Hybrid.t
(** The full hybrid automaton at a coefficient point (for simulation and
    the reach-set baseline). *)

val equilibrium : scaled -> float array
(** The lock equilibrium — the origin. *)

val in_lock : ?tol:float -> scaled -> float array -> bool
(** Whether a state is frequency-locked: all voltage coordinates within
    [tol] (default 0.05) of the equilibrium. *)

val to_physical : scaled -> float array -> float array
(** Convert a scaled state to physical units (volts, phase in cycles). *)

val pp_scaled : Format.formatter -> scaled -> unit
(** Human-readable summary of the scaled coefficients. *)
