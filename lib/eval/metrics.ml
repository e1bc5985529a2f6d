type counts = { tp : int; fp : int; fn : int }

let empty = { tp = 0; fp = 0; fn = 0 }
let add a b = { tp = a.tp + b.tp; fp = a.fp + b.fp; fn = a.fn + b.fn }

module IntSet = Set.Make (Int)

let rec strictly_increasing = function
  | (a : int) :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

(* Ground truth and every tool's entry list arrive sorted and unique, so
   the check is all it costs; anything else is sorted first. *)
let as_set l = if strictly_increasing l then l else List.sort_uniq Int.compare l

(* One merge walk over the two sorted sets. *)
let rec walk tp fp fn truth found =
  match (truth, found) with
  | [], rest -> { tp; fp = fp + List.length rest; fn }
  | rest, [] -> { tp; fp; fn = fn + List.length rest }
  | (t : int) :: truth', f :: found' ->
    if t = f then walk (tp + 1) fp fn truth' found'
    else if t < f then walk tp fp (fn + 1) truth' found
    else walk tp (fp + 1) fn truth found'

let compare_sets ~truth ~found = walk 0 0 0 (as_set truth) (as_set found)

let pct num den = if den = 0 then 100.0 else 100.0 *. float_of_int num /. float_of_int den

let precision c = pct c.tp (c.tp + c.fp)
let recall c = pct c.tp (c.tp + c.fn)

let f1 c =
  let p = precision c and r = recall c in
  if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let false_entries ~truth ~found =
  let t = IntSet.of_list truth and f = IntSet.of_list found in
  (IntSet.elements (IntSet.diff f t), IntSet.elements (IntSet.diff t f))
