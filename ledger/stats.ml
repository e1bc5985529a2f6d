(* Order statistics and the comparison rules the benchmark reports with. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method) gives them, so the spread printed here is
   the one an outside check computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

let mad xs =
  let m = median xs in
  median (List.map (fun x -> Float.abs (x -. m)) xs)

(* Nearest-rank percentile: always one of the samples. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples" else a.(min n (rank ~n p) - 1)

(* A percentile is worth reporting only with at least ten samples beyond
   it; fewer, and one slow sample moves it. *)
let reportable ~n p = n - rank ~n p >= 10

let highest_reportable ~n ps =
  List.fold_left (fun acc p -> if reportable ~n p then Some p else acc) None
    (List.sort Float.compare ps)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let string_of_better = function Lower -> "lower" | Higher -> "higher"

(* How much worse [cand] is than [base], as a share of [base]: positive is
   worse, negative better.  From a zero base any worsening is infinite, so
   a zero bound (failures) admits none. *)
let worsening ~better ~base ~cand =
  let d = match better with Lower -> cand -. base | Higher -> base -. cand in
  if d = 0.0 then 0.0
  else if base = 0.0 then if d > 0.0 then infinity else neg_infinity
  else d /. Float.abs base

let regressed ~better ~bound ~base ~cand = worsening ~better ~base ~cand > bound

type verdict = Regressed | Within | Unresolved | Gain

let string_of_verdict = function
  | Regressed -> "REGRESSED"
  | Within -> "within bound"
  | Unresolved -> "unresolved (spread wider than bound)"
  | Gain -> "gain"

(* Two sets of runs, paired by seed.  A gain needs at least ten pairs, the
   new side winning nine tenths of them (ties count for neither), and the
   medians differing by more than the old side's quartile distance.  A
   regression is a median worse than the bound allows; when the old side's
   own spread is wider than the bound, that is unresolved unless every new
   run beats every old run. *)
let verdict ~better ~bound ~pairs =
  let olds = List.map fst pairs and news = List.map snd pairs in
  let base = median olds and cand = median news in
  let wins =
    List.length (List.filter (fun (o, n) -> worsening ~better ~base:o ~cand:n < 0.0) pairs)
  in
  let q1, _, q3 = quartiles olds in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> worsening ~better ~base:o ~cand:n < 0.0) olds) news
  in
  let n = List.length pairs in
  if n >= 10 && 10 * wins >= 9 * n && Float.abs (cand -. base) > q3 -. q1 then Gain
  else if spread olds > bound && not all_better then Unresolved
  else if regressed ~better ~bound ~base ~cand then Regressed
  else Within
