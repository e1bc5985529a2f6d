type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let next64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let int g n =
  assert (n > 0);
  (* Use the top bits: SplitMix64's low bits are fine, but masking to 62 bits
     keeps the value a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next64 g) 2) in
  v mod n

let in_range g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let float g =
  let v = Int64.to_int (Int64.shift_right_logical (next64 g) 11) in
  float_of_int v /. 9007199254740992.0 (* 2^53 *)

let bool g = Int64.logand (next64 g) 1L = 1L
let chance g p = float g < p

let choose g arr =
  assert (Array.length arr > 0);
  arr.(int g (Array.length arr))

let choose_weighted g items =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 items in
  assert (total > 0.0);
  let target = float g *. total in
  let rec pick acc = function
    | [] -> invalid_arg "choose_weighted: empty"
    | [ (x, _) ] -> x
    | (x, w) :: rest ->
      let acc = acc +. w in
      if target < acc then x else pick acc rest
  in
  pick 0.0 items
