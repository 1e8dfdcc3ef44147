type t = int array

let one n = Array.make n 0

let var n i =
  if i < 0 || i >= n then invalid_arg "Monomial.var: index out of range";
  let m = Array.make n 0 in
  m.(i) <- 1;
  m

let of_exponents es =
  List.iter (fun e -> if e < 0 then invalid_arg "Monomial.of_exponents: negative") es;
  Array.of_list es

let arity = Array.length

let degree m = Array.fold_left ( + ) 0 m

let exponent m i = m.(i)

let check_arity name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Monomial.%s: arity mismatch" name)

let mul a b =
  check_arity "mul" a b;
  let n = Array.length a in
  let m = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set m i (Array.unsafe_get a i + Array.unsafe_get b i)
  done;
  m

let divide m d =
  check_arity "divide" m d;
  let q = Array.init (Array.length m) (fun i -> m.(i) - d.(i)) in
  if Array.for_all (fun e -> e >= 0) q then Some q else None

(* Degree first, then the first differing exponent: one pass that sums
   both degrees and remembers where the vectors first differ. The order
   decides every map's binding order, so the SDPs posed from these maps
   and their cache keys depend on it (DESIGN.md §3). *)
let compare a b =
  check_arity "compare" a b;
  let da = ref 0 and db = ref 0 and first = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    da := !da + x;
    db := !db + y;
    if x <> y then first := Int.compare x y
  done;
  if !da <> !db then Int.compare !da !db else !first

let equal a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b

let is_even m = Array.for_all (fun e -> e mod 2 = 0) m

let all_of_degree n d =
  (* Enumerate exponent vectors of total degree exactly d. *)
  let rec go i remaining acc =
    if i = n - 1 then begin
      acc.(i) <- remaining;
      [ Array.copy acc ]
    end
    else
      List.concat_map
        (fun e ->
          acc.(i) <- e;
          go (i + 1) (remaining - e) acc)
        (List.init (remaining + 1) Fun.id)
  in
  if n = 0 then if d = 0 then [ [||] ] else []
  else List.sort compare (go 0 d (Array.make n 0))

let all_upto n d = List.concat_map (fun k -> all_of_degree n k) (List.init (d + 1) Fun.id)

let to_string ?names m =
  let name i =
    match names with Some a -> a.(i) | None -> Printf.sprintf "x%d" i
  in
  let parts = ref [] in
  for i = Array.length m - 1 downto 0 do
    if m.(i) = 1 then parts := name i :: !parts
    else if m.(i) > 1 then parts := Printf.sprintf "%s^%d" (name i) m.(i) :: !parts
  done;
  match !parts with [] -> "1" | ps -> String.concat "*" ps

let pp ppf m = Format.pp_print_string ppf (to_string m)
