module Inevitability = struct
  type step_times = {
    attractive_invariant_s : float;
    max_level_curves_s : float;
    advection_s : float;
    set_inclusion_s : float;
    escape_certificate_s : float;
  }

  type report = {
    scaled : Pll.scaled;
    invariant : Certificates.attractive_invariant;
    advection : Advect.run_result;
    init_front : Poly.t;
    verified : bool;
    times : step_times;
  }

  (* X2 must be small enough that its reach set stays inside the
     verification box (the saturated pump lets the phase error slew far
     before recovery — measured in test_pll/test_core); these radii were
     sized by simulation sweeps. *)
  let default_init_radii (s : Pll.scaled) =
    match s.Pll.order with
    | Pll.Third -> [| 1.5; 1.5; 1.2 |]
    | Pll.Fourth -> [| 0.9; 0.9; 0.9; 0.72 |]

  let verify ?cert_config ?max_advect_iter ?resilience (s : Pll.scaled) =
    (* One policy across both phases: shared pipeline deadline, one
       chronological journal, and logical solve indices that a fault
       plan can target deterministically. The policy's supervision
       context, if any, covers both phases too. *)
    let cert_config, adv_config =
      match resilience with
      | None -> (cert_config, None)
      | Some pol ->
          Resilient.begin_pipeline pol;
          let cc =
            match cert_config with
            | Some c -> c
            | None -> Certificates.default_config s.Pll.order
          in
          ( Some { cc with Certificates.resilience = pol },
            Some { Advect.default_config with Advect.resilience = pol } )
    in
    match Certificates.attractive_invariant ?config:cert_config s with
    | Error e -> Error ("P1 failed: " ^ e)
    | Ok invariant ->
        let init_front = Advect.ellipsoid_front s ~radii:(default_init_radii s) in
        let advection =
          Advect.run ?config:adv_config ?max_iter:max_advect_iter s invariant ~init:init_front
        in
        let times =
          {
            attractive_invariant_s =
              invariant.Certificates.cert.Certificates.solve_stats.Certificates.time_s;
            max_level_curves_s =
              invariant.Certificates.level_stats.Certificates.time_s;
            advection_s = advection.Advect.advect_time_s;
            set_inclusion_s = advection.Advect.inclusion_time_s;
            escape_certificate_s = advection.Advect.escape_time_s;
          }
        in
        Ok
          {
            scaled = s;
            invariant;
            advection;
            init_front;
            verified = advection.Advect.verified;
            times;
          }

  let pp_report ppf r =
    let order =
      match r.scaled.Pll.order with Pll.Third -> "third" | Pll.Fourth -> "fourth"
    in
    Format.fprintf ppf
      "@[<v>Inevitability verification — %s-order CP PLL@,\
       P1 attractive invariant: beta = %.4f (deg-%d multiple Lyapunov certificates)@,\
       P2 advection: %d iterations, converged = %b, escapes = %d, verified = %b@,\
       Step times (s):@,\
      \  attractive invariant  %8.2f@,\
      \  max level curves      %8.2f@,\
      \  advection             %8.2f@,\
      \  checking set inclusion%8.2f@,\
      \  escape certificate    %8.2f@]"
      order r.invariant.Certificates.beta
      r.invariant.Certificates.cert.Certificates.cfg.Certificates.degree
      r.advection.Advect.iterations r.advection.Advect.converged
      (List.length r.advection.Advect.escapes)
      r.verified r.times.attractive_invariant_s r.times.max_level_curves_s
      r.times.advection_s r.times.set_inclusion_s r.times.escape_certificate_s
end
