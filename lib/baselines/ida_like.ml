module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module Decoder = Cet_x86.Decoder

let analyze_st_impl st =
  match Substrate.text st with
  | None -> []
  | Some text ->
    let reader = Substrate.reader st in
    let sweep = Substrate.sweep st in
    let ix = Substrate.indexes st in
    let text_end = text.vaddr + text.size in
    let entry = Cet_elf.Reader.entry reader in
    (* IDA's ELF loader recognises the __libc_start_main idiom and roots
       the call graph at main. *)
    let roots =
      entry :: (match Common.entry_main_root sweep ~entry with Some m -> [ m ] | None -> [])
    in
    let ex = Common.explore sweep ~roots in
    let starts0 = ex.Common.e_functions in
    (* Tail-jump heuristic: an unconditional jump to an address before the
       current function starts a new one.  [starts0] is sorted, so the
       owning function is a binary search rather than a list walk. *)
    let starts_arr = Array.of_list starts0 in
    let nstarts = Array.length starts_arr in
    let owner_start a =
      (* Greatest start <= a. *)
      let lo = ref 0 and hi = ref nstarts in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if starts_arr.(mid) <= a then lo := mid + 1 else hi := mid
      done;
      if !lo = 0 then None else Some starts_arr.(!lo - 1)
    in
    let tail_jumps = ref [] in
    for k = Array.length ix.Substrate.jmp_sites - 1 downto 0 do
      let site = ix.Substrate.jmp_sites.(k) and target = ix.Substrate.jmp_tgts.(k) in
      match owner_start site with
      | Some f when target < f && not (Linear.mem_sorted starts_arr target) ->
        tail_jumps := target :: !tail_jumps
      | _ -> ()
    done;
    (* Data-reference pass: code addresses materialised by lea (x86-64,
       unambiguous) or by absolute immediates on non-PIE x86 (the image
       base makes text addresses distinctive).  PIE x86 immediates are
       indistinguishable from small constants, so IDA skips them — part of
       why its recall is worse on 32-bit PIEs. *)
    let addr_refs =
      let unambiguous =
        match Cet_elf.Reader.arch reader with
        | Cet_x86.Arch.X64 -> true
        | Cet_x86.Arch.X86 -> not (Cet_elf.Reader.pie reader)
      in
      if not unambiguous then []
      else
        List.rev
          (Array.fold_left
             (fun acc (i : Decoder.ins) ->
               match i.kind with
               | Decoder.Addr_ref t when t >= text.vaddr && t < text_end && t land 3 = 0
                 ->
                 t :: acc
               | _ -> acc)
             [] sweep.insns)
    in
    let known = List.sort_uniq Int.compare (starts0 @ !tail_jumps @ addr_refs) in
    (* FLIRT-style signature pass over code the traversal never reached.
       Signatures predate CET, so a leading end-branch reads as padding and
       hits land four bytes past the true entry. *)
    let pattern_hits =
      Common.prologue_scan sweep ~known ~aggressive:false ~visited:ex.Common.e_visited ()
    in
    let ex2 = Common.explore sweep ~roots:(pattern_hits @ known) in
    List.sort_uniq Int.compare (known @ pattern_hits @ ex2.Common.e_functions)
    |> List.filter (fun a -> a >= text.vaddr && a < text_end)

let analyze_st st =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"baseline.ida" (fun () -> analyze_st_impl st)
  else analyze_st_impl st
