module Substrate = Cet_disasm.Substrate

let analyze_st_impl passes st =
  let starts = Substrate.fde_starts st in
  match Substrate.text st with
  | None -> starts
  | Some text ->
    let text_end = text.vaddr + text.size in
    let starts = List.filter (fun a -> a >= text.vaddr && a < text_end) starts in
    if starts = [] then []
    else begin
      let sweep = Substrate.sweep st in
      (* Extents from consecutive FDE starts (FDEs carry pc_range, but the
         derived extent matches and keeps the pass uniform). *)
      let arr = Array.of_list starts in
      let extents =
        Array.to_list
          (Array.mapi
             (fun i lo ->
               let hi = if i + 1 < Array.length arr then arr.(i + 1) else text_end in
               (lo, hi))
             arr)
      in
      (* FETCH's two verification analyses: stack-height tracking for
         tail-call targets, and calling-convention profiling of every
         candidate — the "more complicated techniques" behind its runtime
         (§V-D). *)
      let tail_targets = Common.stack_height_tail_targets sweep ~extents ~passes in
      let verified = Common.calling_convention_scan sweep ~extents ~passes:(passes * 2) in
      ignore verified;
      List.sort_uniq Int.compare (starts @ tail_targets)
    end

let analyze_st ?(passes = 22) st =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"baseline.fetch" (fun () -> analyze_st_impl passes st)
  else analyze_st_impl passes st
