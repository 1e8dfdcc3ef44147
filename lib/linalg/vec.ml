type t = float array

let create n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let of_list = Array.of_list

let to_list = Array.to_list

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let add x y =
  check_dims "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_dims "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let scale a x = Array.map (fun v -> a *. v) x

let neg x = Array.map (fun v -> -.v) x

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let dot x y =
  check_dims "dot" x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x

let map = Array.map

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let concat = Array.concat

let max_abs_index x =
  let best = ref 0 and best_v = ref 0.0 in
  Array.iteri
    (fun i v ->
      if Float.abs v > !best_v then begin
        best := i;
        best_v := Float.abs v
      end)
    x;
  !best

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= tol) x y

let pp ppf x =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    (Array.to_list x)
