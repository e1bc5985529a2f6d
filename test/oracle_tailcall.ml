(* The retired list-based SELECTTAILCALL, kept as the differential oracle
   for [Core.Funseeker.select_tail_calls_ix]: candidate starts in a sorted
   array searched per site, and a polymorphic [Hashtbl] from each target
   to the list of function starts that reference it. *)

(* Greatest candidate start <= addr, with the extent ending at the next
   candidate (or the end of .text). *)
let owner_extent starts text_end addr =
  let n = Array.length starts in
  let rec search lo hi =
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if starts.(mid) <= addr then search (mid + 1) hi else search lo mid
  in
  let idx = search 0 n in
  if idx < 0 then None
  else
    let lo = starts.(idx) in
    let hi = if idx + 1 < n then starts.(idx + 1) else text_end in
    Some (lo, hi)

let select_tail_calls ?on_vote ~candidates ~jmp_refs ~call_refs ~text_end () =
  let starts = Array.of_list candidates in
  Array.sort Int.compare starts;
  let owner addr = owner_extent starts text_end addr in
  (* target -> function starts that reference it (by call or jump) *)
  let refs : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let add_ref site target =
    match owner site with
    | None -> ()
    | Some (src, _) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt refs target) in
      if not (List.mem src cur) then Hashtbl.replace refs target (src :: cur)
  in
  List.iter (fun (site, target) -> add_ref site target) call_refs;
  List.iter (fun (site, target) -> add_ref site target) jmp_refs;
  List.filter_map
    (fun (site, target) ->
      match owner site with
      | None -> None
      | Some (lo, hi) ->
        let beyond = target < lo || target >= hi in
        let outside_refs =
          match Hashtbl.find_opt refs target with
          | None -> false
          | Some srcs -> List.exists (fun s -> s <> lo) srcs
        in
        let selected = beyond && outside_refs in
        (match on_vote with
        | None -> ()
        | Some f -> f ~site ~target ~lo ~hi ~beyond ~outside_refs ~selected);
        if selected then Some target else None)
    jmp_refs
  |> List.sort_uniq Int.compare
