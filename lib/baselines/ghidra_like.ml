module Substrate = Cet_disasm.Substrate
module Arch = Cet_x86.Arch

let analyze_st_impl st =
  match Substrate.text st with
  | None -> []
  | Some text ->
    let reader = Substrate.reader st in
    let sweep = Substrate.sweep st in
    let text_end = text.vaddr + text.size in
    let in_text a = a >= text.vaddr && a < text_end in
    let fde_extents =
      List.filter (fun (lo, _) -> in_text lo) (Substrate.fde_extents st)
    in
    let fdes = List.map fst fde_extents in
    let entry = Cet_elf.Reader.entry reader in
    let roots =
      (entry :: (match Common.entry_main_root sweep ~entry with Some m -> [ m ] | None -> []))
      @ fdes
    in
    let ex = Common.explore sweep ~roots in
    let known = List.sort_uniq Int.compare (roots @ ex.Common.e_functions) in
    (* Ghidra's x86 pattern library is broader and fires more readily — the
       paper measures the resulting precision loss on x86.  Hits inside an
       FDE-delimited function body are suppressed (Ghidra trusts recorded
       extents), which is why the scanner only misfires where FDEs are
       missing.  Like IDA's, the signatures treat a leading end-branch as a
       legacy NOP and so land past the true entry. *)
    let aggressive = Cet_elf.Reader.arch reader = Arch.X86 in
    let pattern_hits =
      Common.prologue_scan sweep ~known ~aggressive ~visited:ex.Common.e_visited
        ~suppress:fde_extents ()
    in
    let ex2 = Common.explore sweep ~roots:(pattern_hits @ known) in
    List.sort_uniq Int.compare (known @ pattern_hits @ ex2.Common.e_functions)
    |> List.filter in_text

let analyze_st st =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"baseline.ghidra" (fun () -> analyze_st_impl st)
  else analyze_st_impl st
