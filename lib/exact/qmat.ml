(* Exact rational matrices and the LDL^T positive-semidefiniteness
   decision used by the trusted certificate checker. *)

type t = { rows : int; cols : int; data : Rat.t array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) Rat.zero }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then Rat.one else Rat.zero)
let dims a = (a.rows, a.cols)
let get a i j = a.data.((i * a.cols) + j)
let set a i j v = a.data.((i * a.cols) + j) <- v
let copy a = { a with data = Array.copy a.data }
let transpose a = init a.cols a.rows (fun i j -> get a j i)

let same_dims a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Qmat: dimension mismatch"

let add a b =
  same_dims a b;
  { a with data = Array.mapi (fun k v -> Rat.add v b.data.(k)) a.data }

let sub a b =
  same_dims a b;
  { a with data = Array.mapi (fun k v -> Rat.sub v b.data.(k)) a.data }

let scale c a = { a with data = Array.map (Rat.mul c) a.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Qmat.mul: dimension mismatch";
  init a.rows b.cols (fun i j ->
      let acc = ref Rat.zero in
      for k = 0 to a.cols - 1 do
        acc := Rat.add !acc (Rat.mul (get a i k) (get b k j))
      done;
      !acc)

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Rat.equal x y) a.data b.data

let is_symmetric a =
  a.rows = a.cols
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      if not (Rat.equal (get a i j) (get a j i)) then ok := false
    done
  done;
  !ok

let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Qmat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref Rat.zero in
      for j = 0 to a.cols - 1 do
        acc := Rat.add !acc (Rat.mul (get a i j) v.(j))
      done;
      !acc)

let quad_form a v =
  let av = mul_vec a v in
  let acc = ref Rat.zero in
  Array.iteri (fun i x -> acc := Rat.add !acc (Rat.mul x av.(i))) v;
  !acc

let round_of_mat ~denom_bits (m : Linalg.Mat.t) =
  if denom_bits < 0 then invalid_arg "Qmat.round_of_mat";
  let den = Bigint.pow2 denom_bits in
  let round_entry f =
    let scaled = Float.ldexp f denom_bits in
    if Float.is_finite scaled && Float.abs scaled < 9.0e15 then
      Rat.make (Bigint.of_int (int_of_float (Float.round scaled))) den
    else Rat.of_float f
  in
  init m.Linalg.Mat.rows m.Linalg.Mat.cols (fun i j -> round_entry (Linalg.Mat.get m i j))

(* Any exact solution of the (possibly rectangular, possibly
   underdetermined) system A x = b, by fraction-aware Gaussian
   elimination with free variables pinned to zero. Pivots are chosen by
   float magnitude — a heuristic only; every operation is exact. *)
let lin_solve a b =
  if a.rows <> Array.length b then invalid_arg "Qmat.lin_solve: dimension mismatch";
  let m = a.rows and n = a.cols in
  let w = copy a in
  let rhs = Array.copy b in
  let pivot_col_of_row = Array.make m (-1) in
  let row = ref 0 in
  let col = ref 0 in
  while !row < m && !col < n do
    (* best pivot in this column among remaining rows *)
    let best = ref (-1) in
    let best_mag = ref 0.0 in
    for i = !row to m - 1 do
      let mag = Float.abs (Rat.to_float (get w i !col)) in
      if Rat.sign (get w i !col) <> 0 && (!best < 0 || mag > !best_mag) then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best < 0 then incr col
    else begin
      let bi = !best and r = !row in
      if bi <> r then begin
        for j = 0 to n - 1 do
          let tmp = get w r j in
          set w r j (get w bi j);
          set w bi j tmp
        done;
        let tmp = rhs.(r) in
        rhs.(r) <- rhs.(bi);
        rhs.(bi) <- tmp
      end;
      let d = get w r !col in
      for i = 0 to m - 1 do
        if i <> r && Rat.sign (get w i !col) <> 0 then begin
          let f = Rat.div (get w i !col) d in
          for j = !col to n - 1 do
            set w i j (Rat.sub (get w i j) (Rat.mul f (get w r j)))
          done;
          rhs.(i) <- Rat.sub rhs.(i) (Rat.mul f rhs.(r))
        end
      done;
      pivot_col_of_row.(r) <- !col;
      incr row;
      incr col
    end
  done;
  (* consistency: zero rows must have zero rhs *)
  let consistent = ref true in
  for i = !row to m - 1 do
    if Rat.sign rhs.(i) <> 0 then consistent := false
  done;
  if not !consistent then None
  else begin
    let x = Array.make n Rat.zero in
    for i = 0 to !row - 1 do
      let c = pivot_col_of_row.(i) in
      x.(c) <- Rat.div rhs.(i) (get w i c)
    done;
    Some x
  end

type psd_result =
  | Psd of { min_pivot : Rat.t }
  | Not_psd of { witness : Rat.t array; value : Rat.t }

(* Solve L^T v = u for unit lower-triangular L (identity beyond the
   columns filled so far): back substitution from the last row. *)
let solve_lt l u =
  let n = Array.length u in
  let v = Array.copy u in
  for i = n - 1 downto 0 do
    let acc = ref v.(i) in
    for j = i + 1 to n - 1 do
      acc := Rat.sub !acc (Rat.mul (get l j i) v.(j))
    done;
    v.(i) <- !acc
  done;
  v

let psd a =
  if not (is_symmetric a) then invalid_arg "Qmat.psd: matrix not symmetric";
  let n = a.rows in
  if n = 0 then Psd { min_pivot = Rat.zero }
  else begin
    let s = copy a (* mutated into successive Schur complements *) in
    let l = identity n in
    let min_pivot = ref (get a 0 0) in
    let result = ref None in
    let k = ref 0 in
    (* A vector supported on Schur indices >= k pulls back through
       L^T v = u to v with v^T A v = u^T S u. *)
    let refute u =
      let v = solve_lt l u in
      let value = quad_form a v in
      assert (Rat.sign value < 0);
      result := Some (Not_psd { witness = v; value })
    in
    while !result = None && !k < n do
      let kk = !k in
      let d = get s kk kk in
      (match Rat.sign d with
      | -1 ->
          let u = Array.make n Rat.zero in
          u.(kk) <- Rat.one;
          refute u
      | 0 ->
          (* a zero pivot is only compatible with PSD-ness when its whole
             trailing row vanishes; otherwise the 2x2 minor [[0,c],[c,b]]
             has negative determinant and yields an explicit witness. *)
          let j = ref (-1) in
          for jj = kk + 1 to n - 1 do
            if !j < 0 && Rat.sign (get s kk jj) <> 0 then j := jj
          done;
          if !j < 0 then min_pivot := Rat.min !min_pivot Rat.zero
          else begin
            let c = get s kk !j and b = get s !j !j in
            let u = Array.make n Rat.zero in
            (* u = t e_k + e_j with t = -(b+1)/(2c): u^T S u = b + 2tc = -1 *)
            u.(kk) <- Rat.div (Rat.neg (Rat.add b Rat.one)) (Rat.mul (Rat.of_int 2) c);
            u.(!j) <- Rat.one;
            refute u
          end
      | _ ->
          min_pivot := Rat.min !min_pivot d;
          for i = kk + 1 to n - 1 do
            set l i kk (Rat.div (get s i kk) d)
          done;
          for i = kk + 1 to n - 1 do
            let lik = get l i kk in
            if Rat.sign lik <> 0 then
              for j = i to n - 1 do
                let v = Rat.sub (get s i j) (Rat.mul lik (get s kk j)) in
                set s i j v;
                set s j i v
              done
          done);
      incr k
    done;
    match !result with Some r -> r | None -> Psd { min_pivot = !min_pivot }
  end

let pp fmt a =
  for i = 0 to a.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Rat.pp fmt (get a i j)
    done;
    Format.fprintf fmt "]@."
  done
