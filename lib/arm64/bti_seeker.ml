type result = {
  functions : int list;
  bti_c_total : int;
  bti_j_total : int;
  call_target_count : int;
  tail_calls_selected : int;
}

let analyze reader =
  match Cet_elf.Reader.find_section reader ".text" with
  | None -> invalid_arg "Bti_seeker.analyze: no .text section"
  | Some text ->
    let base = text.vaddr in
    let limit = base + text.size in
    let in_text a = a >= base && a < limit in
    let insns = A64.sweep text.data ~base in
    let bti_c = ref [] and bti_j = ref 0 in
    let calls = ref [] and jmp_refs = ref [] and call_refs = ref [] in
    (* Reference lists are built newest-first: reverse into site/target
       arrays in address order for SELECTTAILCALL. *)
    let sites refs = Array.of_list (List.rev_map fst refs) in
    let tgts refs = Array.of_list (List.rev_map snd refs) in
    List.iter
      (fun (i : A64.ins) ->
        match i.kind with
        | A64.K_bti A64.Bti_c -> bti_c := i.addr :: !bti_c
        | A64.K_bti (A64.Bti_j | A64.Bti_jc) -> incr bti_j
        | A64.K_call t when in_text t ->
          calls := t :: !calls;
          call_refs := (i.addr, t) :: !call_refs
        | A64.K_jmp t when in_text t -> jmp_refs := (i.addr, t) :: !jmp_refs
        | _ -> ())
      insns;
    let calls = List.sort_uniq Int.compare !calls in
    let candidates = List.sort_uniq Int.compare (!bti_c @ calls) in
    let selected =
      Array.to_list
        (Core.Funseeker.select_tail_calls_ix ~starts:(Array.of_list candidates)
           ~jmp_sites:(sites !jmp_refs) ~jmp_tgts:(tgts !jmp_refs)
           ~call_sites:(sites !call_refs) ~call_tgts:(tgts !call_refs) ~text_end:limit ())
    in
    {
      functions = List.sort_uniq Int.compare (candidates @ selected);
      bti_c_total = List.length !bti_c;
      bti_j_total = !bti_j;
      call_target_count = List.length calls;
      tail_calls_selected = List.length selected;
    }
