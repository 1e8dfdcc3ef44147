type t = Free of int | Gram of int * int * int

(* [Free] before [Gram], then the fields in order: the order of
   polymorphic compare on this type, written out. Every [Lexpr] lists
   its terms in this order, and so does every SDP constraint posed from
   them (DESIGN.md §3). *)
let compare a b =
  match (a, b) with
  | Free i, Free j -> Int.compare i j
  | Free _, Gram _ -> -1
  | Gram _, Free _ -> 1
  | Gram (b1, i1, j1), Gram (b2, i2, j2) ->
      if b1 <> b2 then Int.compare b1 b2
      else if i1 <> i2 then Int.compare i1 i2
      else Int.compare j1 j2

let equal a b = compare a b = 0

let pp ppf = function
  | Free i -> Format.fprintf ppf "t%d" i
  | Gram (b, i, j) -> Format.fprintf ppf "G%d[%d,%d]" b i j
