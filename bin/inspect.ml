(* inspect — dump the analysis-relevant structure of an ELF binary:
   sections, symbols, PLT map, FDEs, LSDAs, and a .text disassembly
   summary.  With --explain ADDR, print FunSeeker's decision-provenance
   evidence chain for one address instead, cross-referenced against the
   symbol-table ground truth when the binary is unstripped.

   Exit codes: 0 on success, 2 on usage errors, an unreadable file or a
   malformed ELF (a diagnostic on stderr). *)

open Cmdliner

(* The whole file, read to its end rather than sized first, so a pipe
   reads like the file it carries.  A file that cannot be read, or bytes
   that are not an ELF, end in a diagnostic and exit 2. *)
let read_elf path =
  let fail d =
    prerr_string (Cet_util.Diag.render [ d ]);
    exit 2
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    (* An open error names the path already; a read error does not. *)
    let msg = if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg in
    fail (Cet_util.Diag.error ~domain:"io" ~code:"unreadable" msg)
  | bytes -> (
    try Cet_elf.Reader.read bytes
    with Cet_elf.Reader.Malformed msg ->
      fail (Cet_util.Diag.error ~domain:"elf" ~code:"malformed" msg))

(* The sweep of .text as a listing: every instruction it kept, rendered by
   the exact printer, and one "(bad)" line per byte it skipped.  The
   header counts the instructions alone. *)
let print_listing (sw : Cet_disasm.Linear.t) =
  Printf.printf ".text disassembly (%d instructions):\n" (Cet_disasm.Linear.length sw);
  let line addr text = Printf.printf "  0x%-8x %s\n" addr text in
  let next = ref sw.base in
  let skip_to a =
    for b = !next to a - 1 do
      line b "(bad)"
    done
  in
  for i = 0 to Cet_disasm.Linear.length sw - 1 do
    let ins = Cet_disasm.Linear.ins sw i in
    skip_to ins.addr;
    line ins.addr (Cet_x86.Exact.disassemble sw.arch sw.code ~base:sw.base ins);
    next := ins.addr + ins.len
  done;
  skip_to (sw.base + sw.size)

let explain_addr reader addr =
  let prov = Core.Provenance.create () in
  ignore
    (Core.Funseeker.analyze_st ~prov (Cet_disasm.Substrate.create reader)
      : Core.Funseeker.result);
  print_string (Core.Provenance.explain prov addr);
  (* Ground-truth cross-reference: is the address actually a function
     entry?  Only answerable on unstripped binaries. *)
  let truth = Cet_eval.Ground_truth.from_symbols reader in
  if truth = [] then
    print_endline "  ground truth               : unavailable (binary is stripped)"
  else if List.mem addr (Cet_eval.Ground_truth.addresses truth) then
    print_endline "  ground truth               : function entry (in .symtab)"
  else print_endline "  ground truth               : NOT a function entry per .symtab"

let run file disasm explain =
  let reader = read_elf file in
  match explain with
  | Some s ->
    (match int_of_string_opt s with
    | Some addr when addr >= 0 -> explain_addr reader addr
    | _ ->
      Printf.eprintf "inspect: --explain expects an address (hex 0x... or decimal), got %S\n" s;
      exit 2)
  | None ->
  let arch = Cet_elf.Reader.arch reader in
  Printf.printf "arch: %s  type: %s  entry: 0x%x  cet: %b\n"
    (Cet_x86.Arch.to_string arch)
    (if Cet_elf.Reader.pie reader then "DYN (PIE)" else "EXEC")
    (Cet_elf.Reader.entry reader)
    (Cet_elf.Reader.cet_enabled reader);
  print_endline "sections:";
  List.iter
    (fun (s : Cet_elf.Reader.section) ->
      Printf.printf "  %-20s vaddr=0x%-8x size=%d\n" s.name s.vaddr s.size)
    (Cet_elf.Reader.sections reader);
  let syms = Cet_elf.Reader.symbols reader in
  Printf.printf "symbols: %d\n" (List.length syms);
  List.iter
    (fun (s : Cet_elf.Symbol.t) ->
      if s.kind = Cet_elf.Symbol.Func then
        Printf.printf "  0x%-8x %5d %s\n" s.value s.size s.name)
    syms;
  let relocs = Cet_elf.Reader.plt_relocs reader in
  Printf.printf "plt imports: %d\n" (List.length relocs);
  List.iter (fun (slot, name) -> Printf.printf "  got slot 0x%x -> %s\n" slot name) relocs;
  (match Cet_elf.Reader.find_section reader ".eh_frame" with
  | Some s ->
    let frames = Cet_eh.Eh_frame.decode ~vaddr:s.vaddr s.data in
    Printf.printf "fdes: %d\n" (List.length frames);
    List.iter
      (fun (f : Cet_eh.Eh_frame.frame) ->
        Printf.printf "  pc=0x%x..0x%x%s\n" f.pc_begin (f.pc_begin + f.pc_range)
          (match f.lsda with None -> "" | Some l -> Printf.sprintf " lsda=0x%x" l))
      frames
  | None -> print_endline "no .eh_frame");
  if disasm then begin
    match Cet_elf.Reader.find_section reader ".text" with
    | None -> print_endline "no .text"
    | Some _ -> print_listing (Cet_disasm.Substrate.sweep (Cet_disasm.Substrate.create reader))
  end

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let disasm = Arg.(value & flag & info [ "disasm" ] ~doc:"Dump the instruction stream.")

let explain =
  let doc =
    "Print FunSeeker's evidence chain for $(docv) (hex 0x... or decimal) \
     with a .symtab ground-truth cross-reference, instead of the dump."
  in
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"ADDR" ~doc)

let cmd =
  let doc = "dump ELF / exception-handling structure" in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ file $ disasm $ explain)

let () = exit (Cmd.eval cmd)
