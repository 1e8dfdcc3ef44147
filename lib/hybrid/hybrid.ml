type mode = {
  mode_id : int;
  mode_name : string;
  flow : Poly.t array;
  invariant : Poly.t list;
}

type transition = {
  src : int;
  dst : int;
  guard : Poly.t list;
  urgent_when : Poly.t option;
  reset : Poly.t array;
}

type t = {
  nvars : int;
  var_names : string array;
  modes : mode array;
  transitions : transition list;
}

let identity_reset n = Array.init n (fun i -> Poly.var n i)

let make ~nvars ?var_names ~modes ~transitions () =
  let var_names =
    match var_names with
    | Some a ->
        if Array.length a <> nvars then invalid_arg "Hybrid.make: var_names length";
        a
    | None -> Array.init nvars (fun i -> Printf.sprintf "x%d" i)
  in
  let modes = Array.of_list modes in
  Array.iteri
    (fun i m ->
      if m.mode_id <> i then invalid_arg "Hybrid.make: mode ids must be 0..n-1 in order";
      if Array.length m.flow <> nvars then invalid_arg "Hybrid.make: flow arity";
      Array.iter (fun p -> if Poly.nvars p <> nvars then invalid_arg "Hybrid.make: flow arity") m.flow;
      List.iter
        (fun g -> if Poly.nvars g <> nvars then invalid_arg "Hybrid.make: invariant arity")
        m.invariant)
    modes;
  List.iter
    (fun tr ->
      if tr.src < 0 || tr.src >= Array.length modes then invalid_arg "Hybrid.make: bad src";
      if tr.dst < 0 || tr.dst >= Array.length modes then invalid_arg "Hybrid.make: bad dst";
      if Array.length tr.reset <> nvars then invalid_arg "Hybrid.make: reset arity";
      List.iter
        (fun g -> if Poly.nvars g <> nvars then invalid_arg "Hybrid.make: guard arity")
        tr.guard)
    transitions;
  { nvars; var_names; modes; transitions }

let mode sys id =
  if id < 0 || id >= Array.length sys.modes then invalid_arg "Hybrid.mode: bad id";
  sys.modes.(id)

let in_flow_set ?(tol = 1e-9) sys id x =
  List.for_all (fun g -> Poly.eval g x >= -.tol) (mode sys id).invariant

let is_equilibrium ?(tol = 1e-9) sys id x =
  Array.for_all (fun f -> Float.abs (Poly.eval f x) <= tol) (mode sys id).flow

type step = { t : float; j : int; mode_at : int; state : float array }

type arc = step list

type sim_result = { arc : arc; final : step; jumps : int; blocked : bool }

(* A vector field staged for repeated evaluation (see Poly.evaluator). *)
let staged_field f =
  let f = Array.map Poly.evaluator f in
  fun x -> Array.map (fun p -> p x) f

let rk4_with field h x =
  let add a b s = Array.init (Array.length a) (fun i -> a.(i) +. (s *. b.(i))) in
  let k1 = field x in
  let k2 = field (add x k1 (h /. 2.0)) in
  let k3 = field (add x k2 (h /. 2.0)) in
  let k4 = field (add x k3 h) in
  Array.init (Array.length x) (fun i ->
      x.(i) +. (h /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))

let rk4_step f h x = rk4_with (staged_field f) h x

let crossing_fn tr =
  match tr.urgent_when with
  | Some p -> Some p
  | None -> ( match tr.guard with g :: _ -> Some g | [] -> None)

(* A transition with its crossing function, guard and reset staged. *)
type staged_transition = {
  tr : transition;
  crossing : (float array -> float) option;
  guard_holds : tol:float -> float array -> bool;
  apply_reset : float array -> float array;
}

let stage_transition tr =
  let guard = List.map Poly.evaluator tr.guard in
  {
    tr;
    crossing = Option.map Poly.evaluator (crossing_fn tr);
    guard_holds = (fun ~tol x -> List.for_all (fun g -> g x >= -.tol) guard);
    apply_reset = staged_field tr.reset;
  }

(* Bisect the RK4 step [x -> x1] over [0, h] for the first zero upcrossing
   of [c]. Assumes c(x) < 0 <= c(x1). *)
let bisect_crossing field c h x =
  let lo = ref 0.0 and hi = ref h in
  for _ = 1 to 40 do
    let mid = 0.5 *. (!lo +. !hi) in
    let xm = rk4_with field mid x in
    if c xm >= 0.0 then hi := mid else lo := mid
  done;
  (!hi, rk4_with field !hi x)

let simulate ?(dt = 1e-3) ?(max_jumps = 10_000) sys ~mode0 ~x0 ~t_max =
  if Array.length x0 <> sys.nvars then invalid_arg "Hybrid.simulate: state arity";
  (* Every polynomial a step evaluates, staged once per simulation. *)
  let fields = Array.map (fun md -> staged_field md.flow) sys.modes
  and invariants = Array.map (fun md -> List.map Poly.evaluator md.invariant) sys.modes
  and transitions = List.map stage_transition sys.transitions in
  let in_flow_set m x = List.for_all (fun g -> g x >= -1e-6) invariants.(m) in
  let acc = ref [] in
  let t = ref 0.0 and j = ref 0 and m = ref mode0 and x = ref (Array.copy x0) in
  let blocked = ref false in
  let record () = acc := { t = !t; j = !j; mode_at = !m; state = Array.copy !x } :: !acc in
  record ();
  (try
     while !t < t_max do
       if !j >= max_jumps then raise Exit;
       let field = fields.(!m) in
       let h = Float.min dt (t_max -. !t) in
       let x1 = rk4_with field h !x in
       (* Find the transition whose crossing function fires first. *)
       let fired = ref None in
       List.iter
         (fun st ->
           if st.tr.src = !m then
             match st.crossing with
             | None -> ()
             | Some c ->
                 let c0 = c !x and c1 = c x1 in
                 if c0 < 0.0 && c1 >= 0.0 then begin
                   let tau, xc = bisect_crossing field c h !x in
                   match !fired with
                   | Some (tau', _, _) when tau' <= tau -> ()
                   | _ -> if st.guard_holds ~tol:1e-9 xc then fired := Some (tau, xc, st)
                 end)
         transitions;
       (match !fired with
       | Some (tau, xc, st) ->
           t := !t +. tau;
           x := xc;
           record ();
           x := st.apply_reset xc;
           m := st.tr.dst;
           incr j;
           record ()
       | None ->
           if not (in_flow_set !m x1) then begin
             (* Left the flow set without a crossing: take any enabled jump,
                otherwise the solution is blocked. *)
             match
               List.find_opt
                 (fun st -> st.tr.src = !m && st.guard_holds ~tol:1e-6 x1)
                 transitions
             with
             | Some st ->
                 t := !t +. h;
                 x := x1;
                 record ();
                 x := st.apply_reset x1;
                 m := st.tr.dst;
                 incr j;
                 record ()
             | None ->
                 t := !t +. h;
                 x := x1;
                 record ();
                 blocked := true;
                 raise Exit
           end
           else begin
             t := !t +. h;
             x := x1;
             record ()
           end)
     done
   with Exit -> ());
  let arc = List.rev !acc in
  let final = { t = !t; j = !j; mode_at = !m; state = Array.copy !x } in
  { arc; final; jumps = !j; blocked = !blocked }

let pp_step ppf s =
  Format.fprintf ppf "(t=%.6g, j=%d, mode=%d, x=%a)" s.t s.j s.mode_at Linalg.Vec.pp s.state
