type order = Third | Fourth

type raw = {
  order : order;
  c1 : Interval.t;
  c2 : Interval.t;
  c3 : Interval.t option;
  r : Interval.t;
  r2 : Interval.t option;
  f_ref : float;
  f_q : float;
  i_p : Interval.t;
  k_v : Interval.t;
}

let iv = Interval.make

(* Table 1, third-order column. Units as interpreted in DESIGN.md §6:
   Kv is read in rad/s/V with the magnitude that matches the plotted
   state ranges; f_q = f_ref (lock at v2 = 0, matching the origin-centred
   figures). *)
let table1_third =
  {
    order = Third;
    c1 = iv 1.98e-12 2.2e-12;
    c2 = iv 6.1e-12 6.4e-12;
    c3 = None;
    r = iv 7.8e3 8.2e3;
    r2 = None;
    f_ref = 27e6;
    f_q = 27e6;
    i_p = iv 495e-6 505e-6;
    k_v = iv 198e6 202e6;
  }

let table1_fourth =
  {
    order = Fourth;
    c1 = iv 29e-12 31e-12;
    c2 = iv 3.2e-12 3.4e-12;
    c3 = Some (iv 1.8e-12 2.2e-12);
    r = iv 48e3 52e3;
    r2 = Some (iv 7e3 9e3);
    f_ref = 5e6;
    f_q = 5e6;
    i_p = iv 395e-6 405e-6;
    (* Table 1 lists Kv ∈ [495, 502] without units; read in units of
       1e4 rad/s/V, the magnitude at which the scaled loop gain κ·ι/θ_on
       makes the fourth-order loop stable (DESIGN.md §6). *)
    k_v = iv 495e4 502e4;
  }

(* ------------------------------------------------------------------ *)
(* Sweepable parameter axes (parameterized problem construction)       *)
(* ------------------------------------------------------------------ *)

type axis = Ip | R | C1 | C2 | C3 | R2 | Kv

let axes = [ Ip; R; C1; C2; C3; R2; Kv ]

let axis_name = function
  | Ip -> "ip"
  | R -> "r"
  | C1 -> "c1"
  | C2 -> "c2"
  | C3 -> "c3"
  | R2 -> "r2"
  | Kv -> "kv"

let axis_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "ip" -> Ok Ip
  | "r" -> Ok R
  | "c1" -> Ok C1
  | "c2" -> Ok C2
  | "c3" -> Ok C3
  | "r2" -> Ok R2
  | "kv" -> Ok Kv
  | other ->
      Error
        (Printf.sprintf "unknown parameter axis %S (want one of %s)" other
           (String.concat ", " (List.map axis_name axes)))

let axis_interval (raw : raw) = function
  | Ip -> Some raw.i_p
  | R -> Some raw.r
  | C1 -> Some raw.c1
  | C2 -> Some raw.c2
  | C3 -> raw.c3
  | R2 -> raw.r2
  | Kv -> Some raw.k_v

let axis_nominal raw a = Option.map Interval.mid (axis_interval raw a)

let set_axis_relative (raw : raw) a ~lo ~hi =
  if not (lo > 0.0 && hi > 0.0) then
    Error
      (Printf.sprintf "axis %s: relative factors must be strictly positive (got %g:%g)"
         (axis_name a) lo hi)
  else if lo > hi then
    Error (Printf.sprintf "axis %s: empty relative range %g:%g" (axis_name a) lo hi)
  else
    match axis_nominal raw a with
    | None ->
        Error
          (Printf.sprintf "axis %s does not exist on a %s-order model" (axis_name a)
             (match raw.order with Third -> "third" | Fourth -> "fourth"))
    | Some m ->
        let ivl = iv (lo *. m) (hi *. m) in
        Ok
          (match a with
          | Ip -> { raw with i_p = ivl }
          | R -> { raw with r = ivl }
          | C1 -> { raw with c1 = ivl }
          | C2 -> { raw with c2 = ivl }
          | C3 -> { raw with c3 = Some ivl }
          | R2 -> { raw with r2 = Some ivl }
          | Kv -> { raw with k_v = ivl })

type scaled = {
  order : order;
  nvars : int;
  alpha : Interval.t;
  rho : Interval.t;
  beta : Interval.t;
  iota : Interval.t;
  kappa : Interval.t;
  v0 : float;
  t0 : float;
  theta_on : float;
  theta_max : float;
  w_max : float;
}

let two_pi = 2.0 *. Float.pi

let scale (raw : raw) =
  match raw.order with
  | Third ->
      (* v0 = nominal Ip·R: the pump's IR drop, so ι ≈ 1 and the plotted
         ±8 V range becomes w ≈ ±2. *)
      let v0 = Interval.mid raw.i_p *. Interval.mid raw.r in
      let t0 = Interval.mid raw.r *. Interval.mid raw.c2 in
      let alpha = Interval.div raw.c2 raw.c1 in
      let iota = Interval.scale (1.0 /. v0) (Interval.mul raw.i_p raw.r) in
      let kappa =
        Interval.scale (v0 /. two_pi)
          (Interval.mul (Interval.mul raw.r raw.c2) raw.k_v)
      in
      {
        order = Third;
        nvars = 3;
        alpha;
        rho = Interval.point 1.0;
        beta = Interval.point 1.0;
        iota;
        kappa;
        v0;
        t0;
        theta_on = 1.0;
        theta_max = 8.0;
        w_max = 2.5;
      }
  | Fourth ->
      let c3 = Option.get raw.c3 and r2 = Option.get raw.r2 in
      (* A smaller voltage scale (0.4·Ip·R ≈ the plotted ±8 V) keeps all
         coefficients within two decades of each other. *)
      let v0 = 0.4 *. Interval.mid raw.i_p *. Interval.mid raw.r in
      let t0 = Interval.mid raw.r *. Interval.mid raw.c2 in
      let alpha = Interval.div raw.c2 raw.c1 in
      let rho = Interval.div raw.r r2 in
      let beta = Interval.div (Interval.mul raw.r raw.c2) (Interval.mul r2 c3) in
      let iota = Interval.scale (1.0 /. v0) (Interval.mul raw.i_p raw.r) in
      let kappa =
        Interval.scale (v0 /. two_pi)
          (Interval.mul (Interval.mul raw.r raw.c2) raw.k_v)
      in
      {
        order = Fourth;
        nvars = 4;
        alpha;
        rho;
        beta;
        iota;
        kappa;
        v0;
        t0;
        theta_on = 0.5;
        theta_max = 1.0;
        w_max = 1.2;
      }

type point = { alpha : float; rho : float; beta : float; iota : float; kappa : float }

let nominal (s : scaled) =
  {
    alpha = Interval.mid s.alpha;
    rho = Interval.mid s.rho;
    beta = Interval.mid s.beta;
    iota = Interval.mid s.iota;
    kappa = Interval.mid s.kappa;
  }

let vertices (s : scaled) =
  let choices ivl = if Interval.width ivl = 0.0 then [ Interval.mid ivl ] else [ Interval.lo ivl; Interval.hi ivl ] in
  List.concat_map
    (fun alpha ->
      List.concat_map
        (fun rho ->
          List.concat_map
            (fun beta ->
              List.concat_map
                (fun iota ->
                  List.map (fun kappa -> { alpha; rho; beta; iota; kappa }) (choices s.kappa))
                (choices s.iota))
            (choices s.beta))
        (choices s.rho))
    (choices s.alpha)

let off = 0

let up = 1

let down = 2

let n_modes = 3

let mode_name = function
  | 0 -> "off"
  | 1 -> "up"
  | 2 -> "down"
  | m -> invalid_arg (Printf.sprintf "Pll.mode_name: bad mode %d" m)

let theta_index s = s.nvars - 1

let vco_index s = match s.order with Third -> 1 | Fourth -> 2

(* Pump drive as a polynomial in the state. In the tri-state PFD's linear
   range (mode [off], |θ| < one cycle) the cycle-averaged pump current is
   proportional to the phase error — duty cycle θ/2π — so the drive is
   ι·θ/θ_on; beyond a full cycle of error the detector saturates at ±ι
   (modes [up]/[down]). This is the standard continuization of the PFD
   (cf. the paper's reference [2]); a pure dead-zone relay would conserve
   loop-filter charge in mode 1 and exhibit a deadband limit cycle, so
   inevitability would be false for it. *)
let drive s (p : point) m =
  let n = s.nvars in
  match m with
  | 0 -> Poly.scale (p.iota /. s.theta_on) (Poly.var n (theta_index s))
  | 1 -> Poly.const n p.iota
  | 2 -> Poly.const n (-.p.iota)
  | _ -> invalid_arg "Pll.flow: bad mode"

let flow s (p : point) m =
  let n = s.nvars in
  let v i = Poly.var n i in
  let pump = drive s p m in
  match s.order with
  | Third ->
      [|
        Poly.scale p.alpha (Poly.sub (v 1) (v 0));
        Poly.add (Poly.sub (v 0) (v 1)) pump;
        Poly.scale (-.p.kappa) (v 1);
      |]
  | Fourth ->
      [|
        Poly.scale p.alpha (Poly.sub (v 1) (v 0));
        Poly.sum n
          [ Poly.sub (v 0) (v 1); Poly.scale p.rho (Poly.sub (v 2) (v 1)); pump ];
        Poly.scale p.beta (Poly.sub (v 1) (v 2));
        Poly.scale (-.p.kappa) (v 2);
      |]

(* Box bounds w_max^2 - w_i^2 >= 0 for every voltage coordinate. *)
let voltage_box s =
  let n = s.nvars in
  List.init (n - 1) (fun i ->
      Poly.sub (Poly.const n (s.w_max *. s.w_max)) (Poly.mul (Poly.var n i) (Poly.var n i)))

let mode_theta_range s m =
  match m with
  | 0 -> (-.s.theta_on, s.theta_on)
  | 1 -> (s.theta_on, s.theta_max)
  | 2 -> (-.s.theta_max, -.s.theta_on)
  | _ -> invalid_arg "Pll.mode_theta_range: bad mode"

let mode_domain s m =
  let n = s.nvars in
  let th = Poly.var n (theta_index s) in
  let c x = Poly.const n x in
  (* The θ-slab is encoded as a single quadratic [(θ−a)(b−θ) >= 0]: one
     even-degree S-procedure multiplier covers both faces. *)
  let a, b = mode_theta_range s m in
  Poly.mul (Poly.sub th (c a)) (Poly.sub (c b) th) :: voltage_box s

let containment_constraints s m =
  let n = s.nvars in
  let th = Poly.var n (theta_index s) in
  let c x = Poly.const n x in
  let extra =
    match m with
    | 0 -> []
    | 1 -> [ Poly.sub (c s.theta_max) th ]
    | 2 -> [ Poly.add th (c s.theta_max) ]
    | _ -> invalid_arg "Pll.containment_constraints: bad mode"
  in
  extra @ voltage_box s

let switching_surfaces s =
  let n = s.nvars in
  let th = Poly.var n (theta_index s) in
  let c x = Poly.const n x in
  (* θ̇ = −κ·w_vco, so θ rises exactly where the VCO voltage is negative. *)
  let wv = Poly.var n (vco_index s) in
  [
    (off, up, Poly.sub th (c s.theta_on), [ Poly.neg wv ]);
    (up, off, Poly.sub th (c s.theta_on), [ wv ]);
    (off, down, Poly.add th (c s.theta_on), [ wv ]);
    (down, off, Poly.add th (c s.theta_on), [ Poly.neg wv ]);
  ]

let hybrid_system s p =
  let n = s.nvars in
  let names =
    match s.order with
    | Third -> [| "w1"; "w2"; "theta" |]
    | Fourth -> [| "w1"; "w2"; "w3"; "theta" |]
  in
  (* Simulation invariants are deliberately looser than the certificate
     domains ({!mode_domain}): the pump keeps acting however large the
     (unwrapped) phase error grows, so only the PFD's theta-sign structure
     is kept. *)
  let wide = 1e6 in
  let th_sim = Poly.var n (theta_index s) in
  let sim_invariant m =
    match m with
    | 0 ->
        [
          Poly.sub (Poly.const n (s.theta_on *. s.theta_on)) (Poly.mul th_sim th_sim);
        ]
    | 1 ->
        [
          Poly.sub th_sim (Poly.const n s.theta_on);
          Poly.sub (Poly.const n wide) th_sim;
        ]
    | 2 ->
        [
          Poly.sub (Poly.const n (-.s.theta_on)) th_sim;
          Poly.add th_sim (Poly.const n wide);
        ]
    | _ -> assert false
  in
  let mk_mode m name =
    { Hybrid.mode_id = m; mode_name = name; flow = flow s p m; invariant = sim_invariant m }
  in
  let th = Poly.var n (theta_index s) in
  let c x = Poly.const n x in
  let id = Hybrid.identity_reset n in
  let tr src dst crossing guard =
    { Hybrid.src; dst; guard; urgent_when = Some crossing; reset = id }
  in
  Hybrid.make ~nvars:n ~var_names:names
    ~modes:[ mk_mode off "off"; mk_mode up "up"; mk_mode down "down" ]
    ~transitions:
      [
        (* off -> up when θ rises through +theta_on *)
        tr off up (Poly.sub th (c s.theta_on)) [ Poly.sub th (c (s.theta_on *. 0.999)) ];
        (* up -> off when θ falls back through +theta_on *)
        tr up off (Poly.sub (c s.theta_on) th) [ Poly.sub (c (s.theta_on *. 1.001)) th ];
        (* off -> down when θ falls through -theta_on *)
        tr off down (Poly.sub (c (-.s.theta_on)) th) [ Poly.sub (c (-0.999 *. s.theta_on)) th ];
        (* down -> off when θ rises back through -theta_on *)
        tr down off (Poly.add th (c s.theta_on)) [ Poly.add th (c (1.001 *. s.theta_on)) ];
      ]
    ()

let equilibrium s = Array.make s.nvars 0.0

let in_lock ?(tol = 0.05) s x =
  let ok = ref true in
  for i = 0 to s.nvars - 2 do
    if Float.abs x.(i) > tol then ok := false
  done;
  !ok

let to_physical s x =
  Array.mapi (fun i v -> if i = theta_index s then v else v *. s.v0) x

let pp_scaled ppf s =
  Format.fprintf ppf
    "@[<v>%s-order CP PLL (scaled):@,\
     alpha = %a@,\
     rho   = %a@,\
     beta  = %a@,\
     iota  = %a@,\
     kappa = %a@,\
     v0 = %g V, t0 = %g s, theta_on = %g, theta_max = %g, w_max = %g@]"
    (match s.order with Third -> "third" | Fourth -> "fourth")
    Interval.pp s.alpha Interval.pp s.rho Interval.pp s.beta Interval.pp s.iota Interval.pp
    s.kappa s.v0 s.t0 s.theta_on s.theta_max s.w_max
