module Monomial = Monomial

module MonoMap = Map.Make (struct
  type t = Monomial.t

  let compare = Monomial.compare
end)

type t = { nvars : int; terms : float MonoMap.t }

let nvars p = p.nvars

let zero n = { nvars = n; terms = MonoMap.empty }

let normalize_coeff c m map = if c = 0.0 then map else MonoMap.add m c map

let const n c = { nvars = n; terms = normalize_coeff c (Monomial.one n) MonoMap.empty }

let one n = const n 1.0

let var n i =
  { nvars = n; terms = MonoMap.add (Monomial.var n i) 1.0 MonoMap.empty }

(* One pass over the map: [c +. old] ([old] = 0.0 when absent), and a
   zero sum removes the monomial. *)
let add_term m c map =
  MonoMap.update m
    (fun old ->
      let c' = c +. match old with Some v -> v | None -> 0.0 in
      if c' = 0.0 then None else Some c')
    map

let of_terms n l =
  let terms =
    List.fold_left
      (fun acc (m, c) ->
        if Monomial.arity m <> n then invalid_arg "Poly.of_terms: arity mismatch";
        add_term m c acc)
      MonoMap.empty l
  in
  { nvars = n; terms }

let terms p = MonoMap.bindings p.terms

let coeff p m = match MonoMap.find_opt m p.terms with Some c -> c | None -> 0.0

let is_zero p = MonoMap.is_empty p.terms

let degree p = MonoMap.fold (fun m _ acc -> Int.max acc (Monomial.degree m)) p.terms (-1)

let check_arity name a b =
  if a.nvars <> b.nvars then invalid_arg (Printf.sprintf "Poly.%s: arity mismatch" name)

let equal a b = a.nvars = b.nvars && MonoMap.equal Float.equal a.terms b.terms

let add a b =
  check_arity "add" a b;
  { a with terms = MonoMap.fold add_term b.terms a.terms }

let neg a = { a with terms = MonoMap.map (fun c -> -.c) a.terms }

let sub a b = add a (neg b)

let scale s a =
  if s = 0.0 then zero a.nvars else { a with terms = MonoMap.map (fun c -> s *. c) a.terms }

let approx_equal ?(tol = 1e-9) a b =
  a.nvars = b.nvars
  &&
  let d = sub a b in
  MonoMap.for_all (fun _ c -> Float.abs c <= tol) d.terms

let mul a b =
  check_arity "mul" a b;
  let terms =
    MonoMap.fold
      (fun ma ca acc ->
        MonoMap.fold
          (fun mb cb acc -> add_term (Monomial.mul ma mb) (ca *. cb) acc)
          b.terms acc)
      a.terms MonoMap.empty
  in
  { nvars = a.nvars; terms }

let rec pow p k =
  if k < 0 then invalid_arg "Poly.pow: negative exponent"
  else if k = 0 then one p.nvars
  else if k = 1 then p
  else begin
    let h = pow p (k / 2) in
    let h2 = mul h h in
    if k mod 2 = 0 then h2 else mul h2 p
  end

let sum n l = List.fold_left add (zero n) l

(* The terms flattened once, in map order: coefficient [t], and the
   variable index of each factor of term [t] — variables in order, each
   repeated its exponent times — at [factors.(starts.(t)) ..
   factors.(starts.(t + 1) - 1)]. Each call sums [acc +. c *. v] over
   the terms in that order, [v] the product of [1.0] and the factors
   left to right: the float operations of a fold over the map with
   monomials built by repeated multiplication, so the value is bit for
   bit the same, without allocating per term. *)
let evaluator p =
  let n = p.nvars in
  let k = ref 0 and degrees = ref 0 in
  MonoMap.iter
    (fun m _ ->
      incr k;
      for i = 0 to n - 1 do
        degrees := !degrees + m.(i)
      done)
    p.terms;
  let k = !k in
  let coeffs = Array.create_float k
  and starts = Array.make (k + 1) 0
  and factors = Array.make !degrees 0 in
  let t = ref 0 and f = ref 0 in
  MonoMap.iter
    (fun m c ->
      coeffs.(!t) <- c;
      for i = 0 to n - 1 do
        for _ = 1 to m.(i) do
          factors.(!f) <- i;
          incr f
        done
      done;
      incr t;
      starts.(!t) <- !f)
    p.terms;
  fun x ->
    if Array.length x <> n then invalid_arg "Poly.eval: arity mismatch";
    let acc = ref 0.0 in
    for t = 0 to k - 1 do
      let v = ref 1.0 in
      for j = starts.(t) to starts.(t + 1) - 1 do
        v := !v *. x.(factors.(j))
      done;
      acc := !acc +. (coeffs.(t) *. !v)
    done;
    !acc

let eval p x = evaluator p x

let partial i p =
  if i < 0 || i >= p.nvars then invalid_arg "Poly.partial: index out of range";
  let terms =
    MonoMap.fold
      (fun m c acc ->
        let e = Monomial.exponent m i in
        if e = 0 then acc
        else begin
          let m' = Array.copy m in
          m'.(i) <- e - 1;
          add_term m' (c *. float_of_int e) acc
        end)
      p.terms MonoMap.empty
  in
  { p with terms }

let gradient p = Array.init p.nvars (fun i -> partial i p)

let hessian p =
  let g = gradient p in
  Array.init p.nvars (fun i -> Array.init p.nvars (fun j -> partial j g.(i)))

let lie_derivative p f =
  if Array.length f <> p.nvars then invalid_arg "Poly.lie_derivative: arity mismatch";
  let g = gradient p in
  let n = if Array.length f = 0 then p.nvars else (f.(0)).nvars in
  let acc = ref (zero n) in
  for i = 0 to p.nvars - 1 do
    acc := add !acc (mul g.(i) f.(i))
  done;
  !acc

let subst p q =
  if Array.length q <> p.nvars then invalid_arg "Poly.subst: arity mismatch";
  let n = if Array.length q = 0 then 0 else (q.(0)).nvars in
  Array.iter (fun qi -> if qi.nvars <> n then invalid_arg "Poly.subst: ragged arity") q;
  MonoMap.fold
    (fun m c acc ->
      let term = ref (const n c) in
      for i = 0 to p.nvars - 1 do
        let e = Monomial.exponent m i in
        if e > 0 then term := mul !term (pow q.(i) e)
      done;
      add acc !term)
    p.terms (zero n)

let shift p c =
  if Array.length c <> p.nvars then invalid_arg "Poly.shift: arity mismatch";
  let q = Array.init p.nvars (fun i -> add (var p.nvars i) (const p.nvars c.(i))) in
  subst p q

let chop ?(tol = 1e-10) p =
  { p with terms = MonoMap.filter (fun _ c -> Float.abs c > tol) p.terms }

let max_coeff p = MonoMap.fold (fun _ c acc -> Float.max acc (Float.abs c)) p.terms 0.0

let quadratic_form q =
  let n = q.Linalg.Mat.rows in
  let acc = ref (zero n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = Linalg.Mat.get q i j in
      if c <> 0.0 then
        acc := add !acc (scale c (mul (var n i) (var n j)))
    done
  done;
  !acc

let from_basis basis coeffs n =
  if List.length basis <> Array.length coeffs then
    invalid_arg "Poly.from_basis: length mismatch";
  of_terms n (List.mapi (fun k m -> (m, coeffs.(k))) basis)

(* Recursive-descent parser for the [to_string] syntax. *)
let of_string ?names n s =
  let var_index =
    let table = Hashtbl.create 8 in
    (match names with
    | Some a ->
        if Array.length a <> n then invalid_arg "Poly.of_string: names length";
        Array.iteri (fun i name -> Hashtbl.replace table name i) a
    | None ->
        for i = 0 to n - 1 do
          Hashtbl.replace table (Printf.sprintf "x%d" i) i
        done);
    fun name ->
      match Hashtbl.find_opt table name with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Poly.of_string: unknown variable %s" name)
  in
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = invalid_arg (Printf.sprintf "Poly.of_string: %s at position %d" msg !pos) in
  let skip_ws () =
    while !pos < len && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n') do
      incr pos
    done
  in
  let peek () =
    skip_ws ();
    if !pos < len then Some s.[!pos] else None
  in
  let eat c = match peek () with Some c' when c' = c -> incr pos | _ -> fail (Printf.sprintf "expected '%c'" c) in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_' in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      && (is_digit s.[!pos] || s.[!pos] = '.'
         || ((s.[!pos] = 'e' || s.[!pos] = 'E') && !pos > start)
         || ((s.[!pos] = '+' || s.[!pos] = '-')
            && !pos > start
            && (s.[!pos - 1] = 'e' || s.[!pos - 1] = 'E')))
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let parse_ident () =
    let start = !pos in
    while !pos < len && is_ident s.[!pos] do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  let parse_int () =
    let start = !pos in
    while !pos < len && is_digit s.[!pos] do
      incr pos
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad exponent"
  in
  (* Forward declarations for the mutually recursive grammar. *)
  let rec parse_expr () =
    let t = ref (parse_term ()) in
    let continue_ = ref true in
    while !continue_ do
      match peek () with
      | Some '+' ->
          incr pos;
          t := add !t (parse_term ())
      | Some '-' ->
          incr pos;
          t := sub !t (parse_term ())
      | _ -> continue_ := false
    done;
    !t
  and parse_term () =
    let f = ref (parse_factor ()) in
    let continue_ = ref true in
    while !continue_ do
      match peek () with
      | Some '*' ->
          incr pos;
          f := mul !f (parse_factor ())
      | _ -> continue_ := false
    done;
    !f
  and parse_factor () =
    let base = parse_base () in
    match peek () with
    | Some '^' ->
        incr pos;
        skip_ws ();
        pow base (parse_int ())
    | _ -> base
  and parse_base () =
    match peek () with
    | Some '(' ->
        eat '(';
        let e = parse_expr () in
        eat ')';
        e
    | Some '-' ->
        incr pos;
        neg (parse_factor ())
    | Some c when is_digit c || c = '.' -> const n (parse_number ())
    | Some c when is_ident c -> var n (var_index (parse_ident ()))
    | _ -> fail "unexpected input"
  in
  let result = parse_expr () in
  skip_ws ();
  if !pos <> len then fail "trailing input";
  result

let to_string ?names p =
  if is_zero p then "0"
  else begin
    let buf = Buffer.create 64 in
    let first = ref true in
    List.iter
      (fun (m, c) ->
        let mono = Monomial.to_string ?names m in
        let abs_c = Float.abs c in
        if !first then begin
          if c < 0.0 then Buffer.add_string buf "-";
          first := false
        end
        else Buffer.add_string buf (if c < 0.0 then " - " else " + ");
        if Monomial.degree m = 0 then Buffer.add_string buf (Printf.sprintf "%g" abs_c)
        else if abs_c = 1.0 then Buffer.add_string buf mono
        else Buffer.add_string buf (Printf.sprintf "%g*%s" abs_c mono))
      (terms p);
    Buffer.contents buf
  end

let pp ppf p = Format.pp_print_string ppf (to_string p)
