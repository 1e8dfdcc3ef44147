module VMap = Map.Make (Dvar)

type t = { const : float; vars : float VMap.t }

let zero = { const = 0.0; vars = VMap.empty }

let const c = { const = c; vars = VMap.empty }

(* One pass over the map: [c +. old] ([old] = 0.0 when absent), and a
   zero sum removes the variable. *)
let add_term v c m =
  VMap.update v
    (fun old ->
      let c' = c +. match old with Some x -> x | None -> 0.0 in
      if c' = 0.0 then None else Some c')
    m

let var v = { const = 0.0; vars = VMap.add v 1.0 VMap.empty }

let of_terms c terms =
  { const = c; vars = List.fold_left (fun m (v, c) -> add_term v c m) VMap.empty terms }

let constant e = e.const

let terms e = VMap.bindings e.vars

let is_const e = VMap.is_empty e.vars

let add a b = { const = a.const +. b.const; vars = VMap.fold add_term b.vars a.vars }

let neg a = { const = -.a.const; vars = VMap.map (fun c -> -.c) a.vars }

(* [add a (neg b)] without the negated map: the same float operations
   on the same terms in the same order. *)
let sub a b =
  {
    const = a.const +. -.b.const;
    vars = VMap.fold (fun v c m -> add_term v (-.c) m) b.vars a.vars;
  }

let scale s a =
  if s = 0.0 then zero
  else { const = s *. a.const; vars = VMap.map (fun c -> s *. c) a.vars }

(* [add a (scale s b)] likewise; [scale 0.0 b] is [zero]. *)
let add_scaled a s b =
  if s = 0.0 then { a with const = a.const +. 0.0 }
  else
    {
      const = a.const +. (s *. b.const);
      vars = VMap.fold (fun v c m -> add_term v (s *. c) m) b.vars a.vars;
    }

let add_const c a = { a with const = a.const +. c }

let eval assign e = VMap.fold (fun v c acc -> acc +. (c *. assign v)) e.vars e.const

let max_coeff e =
  VMap.fold (fun _ c acc -> Float.max acc (Float.abs c)) e.vars (Float.abs e.const)

let pp ppf e =
  Format.fprintf ppf "%g" e.const;
  VMap.iter (fun v c -> Format.fprintf ppf " + %g*%a" c Dvar.pp v) e.vars
