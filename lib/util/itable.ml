type t = (int * int) array

let of_list_lenient ivs =
  let ivs =
    List.filter (fun (lo, hi) -> lo < hi) ivs
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  (* Keep the first interval of every overlapping run (stable sort, so the
     outcome is deterministic in the input order). *)
  let kept = ref [] in
  let last_hi = ref min_int in
  List.iter
    (fun (lo, hi) ->
      if lo >= !last_hi then begin
        kept := (lo, hi) :: !kept;
        last_hi := hi
      end)
    ivs;
  Array.of_list (List.rev !kept)

let mem t x =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let l, h = t.(mid) in
    if x < l then search lo mid else if x >= h then search (mid + 1) hi else true
  in
  search 0 (Array.length t)
