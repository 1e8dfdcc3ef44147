(* Certified time-to-lock bounds — the property verified by the paper's
   related work ([2] Althoff et al., [6] Lin et al.), obtained here as a
   corollary of the strict decrease margins of our multiple Lyapunov
   certificates: dV/dt <= -eps·|x|², so outside X1 the certificate value
   drains at a known minimum rate.

   The certified bound is compared against simulated worst-case lock
   times over the same region.

   Run with:  dune exec examples/time_to_lock.exe *)

let () =
  let s = Pll.scale Pll.table1_third in
  let cfg = { (Certificates.default_config Pll.Third) with Certificates.degree = 4 } in
  match Certificates.attractive_invariant ~config:cfg s with
  | Error e ->
      Format.printf "attractive invariant failed: %s@." e;
      exit 1
  | Ok ai ->
      let beta = ai.Certificates.beta in
      Format.printf "X1 level: beta = %.1f@." beta;
      List.iter
        (fun factor ->
          let from_level = factor *. beta in
          let t = Certificates.time_to_lock_bound s ai ~from_level in
          Format.printf
            "from {V <= %.0f} (= %.1f x beta): certified time to reach X1 <= %.1f (= %.3g s)@."
            from_level factor t (t *. s.Pll.t0))
        [ 1.5; 2.0; 4.0 ];
      (* Compare with simulation: sample states near the 2x-beta level,
         measure time until the state enters X1. *)
      let sys = Pll.hybrid_system s (Pll.nominal s) in
      let rng = Random.State.make [| 3 |] in
      let in_x1 = Certificates.member s ai in
      let worst = ref 0.0 and count = ref 0 in
      while !count < 30 do
        let x0 =
          Array.init 3 (fun i ->
              let b = if i = 2 then s.Pll.theta_max else s.Pll.w_max in
              (Random.State.float rng 2.0 -. 1.0) *. b)
        in
        let th = x0.(2) in
        let m =
          if Float.abs th <= s.Pll.theta_on then Pll.off
          else if th > 0.0 then Pll.up
          else Pll.down
        in
        let v = Poly.eval ai.Certificates.cert.Certificates.vs.(m) x0 in
        if v > beta && v <= 2.0 *. beta then begin
          incr count;
          let r = Hybrid.simulate ~dt:1e-3 sys ~mode0:m ~x0 ~t_max:100.0 in
          let entry =
            List.find_opt
              (fun (st : Hybrid.step) -> in_x1 st.Hybrid.state)
              r.Hybrid.arc
          in
          match entry with
          | Some st -> if st.Hybrid.t > !worst then worst := st.Hybrid.t
          | None -> ()
        end
      done;
      Format.printf "simulated worst entry time from that band: %.2f (certified bound must dominate)@."
        !worst;
      let certified = Certificates.time_to_lock_bound s ai ~from_level:(2.0 *. beta) in
      if certified < !worst then begin
        Format.printf "BOUND VIOLATED — unsound!@.";
        exit 1
      end;
      Format.printf "certified bound %.1f >= simulated worst %.2f: consistent@." certified !worst
