module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module Decoder = Cet_x86.Decoder

(* Union-find over block indices. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(ra) <- rb

let analyze_st_impl st =
  match Substrate.text st with
  | None -> []
  | Some text ->
    let reader = Substrate.reader st in
    let arch = Cet_elf.Reader.arch reader in
    let sweep = Substrate.sweep st in
    let text_end = text.vaddr + text.size in
    let in_text a = a >= text.vaddr && a < text_end in
    (* Leaders: text start, branch/call targets, and successors of
       terminators. *)
    let leaders = Hashtbl.create 1024 in
    Hashtbl.replace leaders text.vaddr ();
    let call_targets = Hashtbl.create 256 in
    let n = Linear.length sweep in
    for k = 0 to n - 1 do
      let tag = Linear.tag sweep k and t = Linear.target sweep k in
      let next = Linear.addr sweep k + Linear.len sweep k in
      if tag = Decoder.tag_call_direct then begin
        if in_text t then begin
          Hashtbl.replace leaders t ();
          Hashtbl.replace call_targets t ()
        end
      end
      else if tag = Decoder.tag_jmp_direct || tag = Decoder.tag_jcc_direct then begin
        (* Conditional branches terminate their block too: both the target
           and the fall-through start new blocks. *)
        if in_text t then Hashtbl.replace leaders t ();
        if in_text next then Hashtbl.replace leaders next ()
      end
      else if tag = Decoder.tag_ret || tag = Decoder.tag_halt || tag = Decoder.tag_jmp_indirect
      then if in_text next then Hashtbl.replace leaders next ()
    done;
    let block_starts =
      List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders [])
    in
    let starts = Array.of_list block_starts in
    let nblocks = Array.length starts in
    let block_of addr =
      (* Greatest start <= addr. *)
      let lo = ref 0 and hi = ref nblocks in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if starts.(mid) <= addr then lo := mid + 1 else hi := mid
      done;
      !lo - 1
    in
    (* Padding blocks (inter-function NOP/INT3 fill) are discarded so their
       fall-through does not glue adjacent functions together. *)
    let is_padding b =
      let stop = if b + 1 < nblocks then starts.(b + 1) else text_end in
      let rec walk addr =
        if addr >= stop then true
        else
          match Cet_x86.Exact.decode arch text.data ~off:(addr - text.vaddr) with
          | Some (Cet_x86.Insn.Nop, len)
          | Some (Cet_x86.Insn.Nopl _, len)
          | Some (Cet_x86.Insn.Int3, len) ->
            walk (addr + len)
          | _ -> false
      in
      walk starts.(b)
    in
    let padding = Array.init nblocks is_padding in
    let parent = Array.init nblocks Fun.id in
    let indeg = Array.make nblocks 0 in
    let edge src dst =
      if (not padding.(src)) && not padding.(dst) then begin
        union parent src dst;
        indeg.(dst) <- indeg.(dst) + 1
      end
    in
    (* Walk each block's instructions; the last one decides its edges. *)
    for k = 0 to n - 1 do
      let addr = Linear.addr sweep k in
      let next = addr + Linear.len sweep k in
      let src = block_of addr in
      let last_of_block = next >= text_end || Hashtbl.mem leaders next in
      if last_of_block && src >= 0 then begin
        let tag = Linear.tag sweep k and t = Linear.target sweep k in
        if tag = Decoder.tag_jcc_direct then begin
          if in_text t then edge src (block_of t);
          if in_text next then edge src (block_of next)
        end
        else if tag = Decoder.tag_jmp_direct then begin
          (* Unconditional jumps are intra-procedural unless the target
             is also a call target (then it's a tail call). *)
          if in_text t && not (Hashtbl.mem call_targets t) then edge src (block_of t)
        end
        else if
          not (tag = Decoder.tag_ret || tag = Decoder.tag_halt || tag = Decoder.tag_jmp_indirect)
        then if in_text next then edge src (block_of next)
      end
    done;
    (* Jump-table discovery: addresses stored as code pointers in .rodata
       are switch-case targets, i.e. intra-procedural — Nucleus resolves
       those tables rather than promoting each case block to a function. *)
    let table_targets = Hashtbl.create 64 in
    (match Cet_elf.Reader.find_section reader ".rodata" with
    | None -> ()
    | Some ro ->
      let ptr = Cet_x86.Arch.ptr_size arch in
      let words = String.length ro.data / ptr in
      for w = 0 to words - 1 do
        let v = ref 0 in
        for b = ptr - 1 downto 0 do
          v := (!v lsl 8) lor Char.code ro.data.[(w * ptr) + b]
        done;
        if in_text !v then Hashtbl.replace table_targets !v ()
      done);
    (* Entry blocks: no intra-procedural predecessor, not padding, not a
       jump-table target.  Leading alignment filler is stripped — when the
       previous function's padding was not split into its own block, the
       function proper starts after the NOP run. *)
    let strip_leading_padding addr =
      let rec go a =
        if a >= text_end then a
        else
          match Cet_x86.Exact.decode arch text.data ~off:(a - text.vaddr) with
          | Some (Cet_x86.Insn.Nop, len)
          | Some (Cet_x86.Insn.Nopl _, len)
          | Some (Cet_x86.Insn.Int3, len) ->
            go (a + len)
          | _ -> a
      in
      go addr
    in
    let entries = ref [] in
    for b = 0 to nblocks - 1 do
      if
        (not padding.(b)) && indeg.(b) = 0
        && not (Hashtbl.mem table_targets starts.(b))
      then begin
        let a = strip_leading_padding starts.(b) in
        if a < text_end then entries := a :: !entries
      end
    done;
    List.sort_uniq Int.compare !entries

let analyze_st st =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"baseline.nucleus" (fun () -> analyze_st_impl st)
  else analyze_st_impl st
