module Monomial = Poly.Monomial

module MonoMap = Map.Make (struct
  type t = Monomial.t

  let compare = Monomial.compare
end)

type t = { nvars : int; terms : Lexpr.t MonoMap.t }

let nvars p = p.nvars

let zero n = { nvars = n; terms = MonoMap.empty }

let is_zero_expr e = Lexpr.is_const e && Lexpr.constant e = 0.0

(* Set the term at [m] to [f old] in one pass over the map, [old] its
   current expression if any; a zero result removes [m]. *)
let update_term m f map =
  MonoMap.update m
    (fun old ->
      let e' = f old in
      if is_zero_expr e' then None else Some e')
    map

let add_term m e map = update_term m (function Some x -> Lexpr.add x e | None -> e) map

(* [add_term m (Lexpr.neg e)] and [add_term m (Lexpr.scale s e)], bit
   for bit, without building the negated or scaled expression first
   when [m] is already present. *)
let sub_term m e map =
  update_term m (function Some x -> Lexpr.sub x e | None -> Lexpr.neg e) map

let add_scaled_term m s e map =
  update_term m (function Some x -> Lexpr.add_scaled x s e | None -> Lexpr.scale s e) map

let of_poly p =
  {
    nvars = Poly.nvars p;
    terms =
      List.fold_left
        (fun acc (m, c) -> MonoMap.add m (Lexpr.const c) acc)
        MonoMap.empty (Poly.terms p);
  }

let of_terms n l =
  {
    nvars = n;
    terms =
      List.fold_left
        (fun acc (m, e) ->
          if Monomial.arity m <> n then invalid_arg "Ppoly.of_terms: arity mismatch";
          add_term m e acc)
        MonoMap.empty l;
  }

let coeff p m = match MonoMap.find_opt m p.terms with Some e -> e | None -> Lexpr.zero

let terms p = MonoMap.bindings p.terms

let check_arity name a b =
  if a.nvars <> b.nvars then invalid_arg (Printf.sprintf "Ppoly.%s: arity mismatch" name)

let add a b =
  check_arity "add" a b;
  { a with terms = MonoMap.fold add_term b.terms a.terms }

let neg a = { a with terms = MonoMap.map Lexpr.neg a.terms }

let sub a b =
  check_arity "sub" a b;
  { a with terms = MonoMap.fold sub_term b.terms a.terms }

let scale s a =
  if s = 0.0 then zero a.nvars else { a with terms = MonoMap.map (Lexpr.scale s) a.terms }

let scale_expr e p =
  {
    nvars = Poly.nvars p;
    terms =
      List.fold_left
        (fun acc (m, c) -> add_term m (Lexpr.scale c e) acc)
        MonoMap.empty (Poly.terms p);
  }

let mul_poly q a =
  if Poly.nvars q <> a.nvars then invalid_arg "Ppoly.mul_poly: arity mismatch";
  let terms =
    List.fold_left
      (fun acc (mq, cq) ->
        MonoMap.fold
          (fun ma ea acc -> add_scaled_term (Monomial.mul mq ma) cq ea acc)
          a.terms acc)
      MonoMap.empty (Poly.terms q)
  in
  { nvars = a.nvars; terms }

let partial i a =
  if i < 0 || i >= a.nvars then invalid_arg "Ppoly.partial: index out of range";
  let terms =
    MonoMap.fold
      (fun m e acc ->
        let ei = Monomial.exponent m i in
        if ei = 0 then acc
        else begin
          let m' = Array.copy m in
          m'.(i) <- ei - 1;
          add_scaled_term m' (float_of_int ei) e acc
        end)
      a.terms MonoMap.empty
  in
  { a with terms }

let apply_poly_map q a =
  if Array.length q <> a.nvars then invalid_arg "Ppoly.apply_poly_map: arity mismatch";
  let n = if Array.length q = 0 then 0 else Poly.nvars q.(0) in
  Array.iter
    (fun qi -> if Poly.nvars qi <> n then invalid_arg "Ppoly.apply_poly_map: ragged arity")
    q;
  MonoMap.fold
    (fun m e acc ->
      let image = ref (Poly.one n) in
      Array.iteri
        (fun i ei -> if ei > 0 then image := Poly.mul !image (Poly.pow q.(i) ei))
        m;
      add acc (scale_expr e !image))
    a.terms (zero n)

let fix_var i c a =
  if i < 0 || i >= a.nvars then invalid_arg "Ppoly.fix_var: index out of range";
  let terms =
    MonoMap.fold
      (fun m e acc ->
        let ei = Monomial.exponent m i in
        if ei = 0 then add_term m e acc
        else begin
          let m' = Array.copy m in
          m'.(i) <- 0;
          let factor = Float.pow c (float_of_int ei) in
          add_scaled_term m' factor e acc
        end)
      a.terms MonoMap.empty
  in
  { a with terms }

let lie_derivative a f =
  if Array.length f <> a.nvars then invalid_arg "Ppoly.lie_derivative: arity mismatch";
  let acc = ref (zero a.nvars) in
  for i = 0 to a.nvars - 1 do
    acc := add !acc (mul_poly f.(i) (partial i a))
  done;
  !acc

let min_degree p =
  MonoMap.fold (fun m _ acc -> Int.min acc (Monomial.degree m)) p.terms max_int

let max_degree p =
  MonoMap.fold (fun m _ acc -> Int.max acc (Monomial.degree m)) p.terms (-1)

let value assign p =
  Poly.of_terms p.nvars
    (List.map (fun (m, e) -> (m, Lexpr.eval assign e)) (MonoMap.bindings p.terms))

let pp ppf p =
  if MonoMap.is_empty p.terms then Format.pp_print_string ppf "0"
  else begin
    let first = ref true in
    MonoMap.iter
      (fun m e ->
        if not !first then Format.fprintf ppf " + ";
        first := false;
        Format.fprintf ppf "(%a)*%a" Lexpr.pp e Monomial.pp m)
      p.terms
  end
