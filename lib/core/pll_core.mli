(** Top-level facade: end-to-end verification of inevitability of
    phase-locking for the CP PLL (the paper's headline result).

    Inevitability (Definition 4) is split as in §3 of the paper into

    - {b P1}: inside a compact set [X1], every hybrid arc converges to
      the lock equilibrium — established by the multiple-Lyapunov
      attractive invariant ({!Certificates});
    - {b P2}: from the outer set [X2 = S(init)], every arc reaches [X1]
      in bounded time — established by bounded advection of level sets
      plus, where needed, Escape certificates ({!Advect}).

    [verify] runs the whole pipeline and reports the per-step wall-clock
    times matching Table 2 of the paper. *)

module Inevitability : sig
  (** Wall-clock seconds per verification step — the rows of the paper's
      Table 2. *)
  type step_times = {
    attractive_invariant_s : float;
    max_level_curves_s : float;
    advection_s : float;
    set_inclusion_s : float;
    escape_certificate_s : float;
  }

  type report = {
    scaled : Pll.scaled;  (** the verified (scaled) model *)
    invariant : Certificates.attractive_invariant;  (** [X1] *)
    advection : Advect.run_result;  (** the P2 run *)
    init_front : Poly.t;  (** polynomial cutting out [X2] *)
    verified : bool;  (** P1 ∧ P2 *)
    times : step_times;
  }

  val verify :
    ?cert_config:Certificates.config ->
    ?max_advect_iter:int ->
    ?resilience:Resilient.policy ->
    Pll.scaled ->
    (report, string) result
  (** Run the two-pronged verification on a scaled CP PLL model, from
      the ellipsoidal initial set [X2] of {!default_init_radii}.
      [resilience], when given, is installed as the single
      solve-orchestration policy of both phases (overriding whatever the
      configs carry) and reset via {!Resilient.begin_pipeline}: one
      shared pipeline deadline, one failure journal, and deterministic
      logical solve indices for fault plans. A supervision context on
      that policy ([Resilient.make ~supervise]) covers both phases: every
      solve then runs in the context's solver worker under its timeout
      and memory cap, independent per-mode/per-condition work fans out
      across its pool, and — with a run directory — completed solves are
      cached and journaled so a killed run resumes from its checkpoint. *)

  val default_init_radii : Pll.scaled -> float array
  (** The default [X2] semi-axes. *)

  val pp_report : Format.formatter -> report -> unit
  (** Human-readable summary (certificate sizes, β, iteration counts,
      timing rows). *)
end
