module Arch = Cet_x86.Arch
module Insn = Cet_x86.Insn
module Asm = Cet_x86.Asm
module Reg = Cet_x86.Register
module Encoder = Cet_x86.Encoder
module Image = Cet_elf.Image
module Symbol = Cet_elf.Symbol
module Consts = Cet_elf.Consts
module W = Cet_util.Bytesio.W

type result = {
  image : Image.t;
  truth : (string * int) list;
  fragment_extents : (string * int * int) list;
  plt_entries : (string * int) list;
}

let base_address (opts : Options.t) =
  match (opts.arch, opts.pie) with
  | Arch.X86, false -> 0x8049000
  | Arch.X64, false -> 0x401000
  | _, true -> 0x1000

let plt_entry_size = 16

let align_up v a = (v + a - 1) / a * a

(* IBT-style PLT: every entry starts with an end-branch and jumps through
   its GOT slot; entry 0 is the resolver stub.  Legacy (-fcf-protection=none)
   links use the unmarked layout. *)
let build_plt arch ~cet ~plt_vaddr ~got_vaddr ~nimports =
  let ptr = Arch.ptr_size arch in
  let w = W.create () in
  let entry ~index ~slot =
    let start = plt_vaddr + (index * plt_entry_size) in
    let endbr = if cet then Encoder.encode arch Insn.Endbr else "" in
    W.bytes w endbr;
    let jmp_vaddr = start + String.length endbr in
    (* jmp [slot]: absolute on x86, RIP-relative on x86-64. *)
    let disp =
      match arch with
      | Arch.X86 -> slot
      | Arch.X64 -> slot - (jmp_vaddr + 6)
    in
    W.bytes w (Encoder.encode arch (Insn.Jmp_mem { mem = Insn.mem_abs disp; notrack = false }));
    (* Re-adjust: the encoder re-encodes the displacement verbatim; for x64
       we precomputed the rip-relative value above. *)
    let used = W.length w - (index * plt_entry_size) in
    W.bytes w (String.make (plt_entry_size - used) '\xCC')
  in
  (* PLT0 jumps through the reserved second GOT slot. *)
  entry ~index:0 ~slot:(got_vaddr + (2 * ptr));
  for i = 0 to nimports - 1 do
    entry ~index:(i + 1) ~slot:(got_vaddr + ((3 + i) * ptr))
  done;
  W.contents w

let jump_table_bytes arch ~resolve tables =
  let ptr = Arch.ptr_size arch in
  let w = W.create () in
  let offsets =
    List.map
      (fun (label, cases) ->
        let off = W.length w in
        List.iter
          (fun case ->
            let a = resolve case in
            if ptr = 8 then W.u64 w a else W.u32 w a)
          cases;
        (label, off))
      tables
  in
  (W.contents w, offsets)

let link (opts : Options.t) (p : Ir.program) =
  let arch = opts.arch in
  let ptr = Arch.ptr_size arch in
  let imports = Codegen.imports p in
  let nimports = List.length imports in
  let base = base_address opts in
  let plt_vaddr = base in
  let plt_size = plt_entry_size * (nimports + 1) in
  let text_vaddr = align_up (plt_vaddr + plt_size) 16 in
  (* Encode .text once, in place; its label fields are patched at the end,
     once every other section has an address. *)
  let out = Codegen.lower opts p ~imports ~base:text_vaddr in
  let text_size = Asm.size out.text in
  let addrs = Asm.addresses out.text out.labels in
  let addr_of l =
    let a = addrs.(l) in
    if a = -1 then invalid_arg (Printf.sprintf "Link: undefined label %d" l);
    a
  in
  let plt_entries =
    List.mapi (fun i name -> (name, plt_vaddr + ((i + 1) * plt_entry_size))) imports
  in
  (* Import [i]'s label is [i], its PLT entry. *)
  List.iteri (fun i (_, a) -> addrs.(i) <- a) plt_entries;
  (* Jump tables into .rodata. *)
  let tables = List.concat_map (fun f -> f.Codegen.tables) out.fragments in
  let rodata_vaddr = align_up (text_vaddr + text_size) 16 in
  let rodata, table_offsets = jump_table_bytes arch ~resolve:addr_of tables in
  List.iter (fun (l, off) -> addrs.(l) <- rodata_vaddr + off) table_offsets;
  (* Fragment extents. *)
  let fragment_extents =
    List.map
      (fun f -> (f.Codegen.frag_name, addr_of f.Codegen.start, addr_of f.Codegen.stop))
      out.fragments
  in
  (* LSDAs. *)
  let lsda_frags =
    List.filter (fun f -> f.Codegen.lsda_sites <> []) out.fragments
  in
  let lsdas =
    List.map
      (fun f ->
        let fstart = addr_of f.Codegen.start in
        let sites =
          List.map
            (fun (s : Codegen.lsda_site) ->
              {
                Cet_eh.Lsda.cs_start = addr_of s.try_start - fstart;
                cs_len = addr_of s.try_end - addr_of s.try_start;
                cs_landing_pad = addr_of s.landing - fstart;
                cs_action = 1;
              })
            f.Codegen.lsda_sites
        in
        { Cet_eh.Lsda.call_sites = sites; type_count = max 1 f.Codegen.handler_count })
      lsda_frags
  in
  let except_table, lsda_offsets = Cet_eh.Lsda.build_table lsdas in
  let eh_frame_vaddr = align_up (rodata_vaddr + String.length rodata) 8 in
  (* FDE population per the compiler persona (§V-C):
     - GCC: an FDE for every fragment, including .cold/.part;
     - Clang on x86-64: an FDE for every fragment;
     - Clang on x86: FDEs only for C++ code. *)
  let lang_cpp = p.lang = Ir.Cpp in
  let emits_fdes = Options.emits_fdes opts ~lang_cpp in
  let lsda_addr_of_frag =
    let tbl = Hashtbl.create 16 in
    List.iter2
      (fun f off -> Hashtbl.replace tbl f.Codegen.frag_name off)
      lsda_frags lsda_offsets;
    fun name gcc_except_vaddr ->
      Option.map (fun off -> gcc_except_vaddr + off) (Hashtbl.find_opt tbl name)
  in
  (* The .gcc_except_table address depends on .eh_frame's size, which is
     value-independent: measure with a placeholder first. *)
  let frames_for gcc_except_vaddr =
    List.filter_map
      (fun (name, start, stop) ->
        if emits_fdes then
          Some
            {
              Cet_eh.Eh_frame.pc_begin = start;
              pc_range = stop - start;
              lsda = lsda_addr_of_frag name gcc_except_vaddr;
            }
        else
          match lsda_addr_of_frag name gcc_except_vaddr with
          | Some l ->
            Some { Cet_eh.Eh_frame.pc_begin = start; pc_range = stop - start; lsda = Some l }
          | None -> None)
      fragment_extents
  in
  let personality =
    match List.assoc_opt "__gxx_personality_v0" plt_entries with
    | Some a -> a
    | None -> 0
  in
  (* .eh_frame_hdr precedes .eh_frame (GNU layout); its size depends only
     on the FDE count, so the chain of addresses resolves in one pass. *)
  let probe_frames = frames_for 0 in
  let hdr_vaddr = eh_frame_vaddr in
  let hdr_size = Cet_eh.Eh_frame_hdr.size (List.length probe_frames) in
  let eh_frame_vaddr = align_up (hdr_vaddr + hdr_size) 8 in
  let eh_probe = Cet_eh.Eh_frame.encode ~vaddr:eh_frame_vaddr ~personality probe_frames in
  let gcc_except_vaddr = align_up (eh_frame_vaddr + String.length eh_probe) 4 in
  let eh_frame, fde_offsets =
    Cet_eh.Eh_frame.encode_with_offsets ~vaddr:eh_frame_vaddr ~personality
      (frames_for gcc_except_vaddr)
  in
  assert (String.length eh_frame = String.length eh_probe);
  let eh_frame_hdr =
    Cet_eh.Eh_frame_hdr.encode ~vaddr:hdr_vaddr ~eh_frame_vaddr
      (List.map
         (fun (pc, off) ->
           { Cet_eh.Eh_frame_hdr.initial_loc = pc; fde_addr = eh_frame_vaddr + off })
         fde_offsets)
  in
  let got_vaddr = align_up (gcc_except_vaddr + String.length except_table) ptr in
  let got_size = (3 + nimports) * ptr in
  let data_vaddr = align_up (got_vaddr + got_size) 16 in
  let data = String.make 32 '\x00' in
  let text = Asm.link out.text addrs in
  let plt =
    build_plt arch
      ~cet:(opts.cf_protection <> Options.Cf_none)
      ~plt_vaddr ~got_vaddr ~nimports
  in
  (* Symbols. *)
  let file_symbol =
    {
      Symbol.name = p.prog_name ^ (if lang_cpp then ".cpp" else ".c");
      value = 0;
      size = 0;
      kind = Symbol.File;
      bind = Symbol.Local;
      section = None;
    }
  in
  let func_symbols =
    List.filter_map
      (fun f ->
        if not f.Codegen.has_symbol then None
        else begin
          let start = addr_of f.Codegen.start and stop = addr_of f.Codegen.stop in
          Some
            {
              Symbol.name = f.Codegen.frag_name;
              value = start;
              size = stop - start;
              kind = Symbol.Func;
              bind = (if f.Codegen.global then Symbol.Global else Symbol.Local);
              section = Some ".text";
            }
        end)
      out.fragments
  in
  let dynsyms = List.map Symbol.undef_func imports in
  let plt_relocs =
    List.mapi (fun i name -> (got_vaddr + ((3 + i) * ptr), name)) imports
  in
  (* Debug info (-g, as the paper's dataset is built): subprogram DIEs for
     every symbol-carrying fragment, including .cold/.part — the ground
     truth then applies the paper's corrections on top. *)
  let dwarf_abbrev, dwarf_info, dwarf_str =
    Cet_eh.Dwarf_info.encode ~ptr_size:ptr
      {
        Cet_eh.Dwarf_info.cu_name = p.prog_name ^ (if lang_cpp then ".cpp" else ".c");
        producer = Options.compiler_name opts.compiler ^ " (synthetic)";
        subprograms =
          List.filter_map
            (fun f ->
              if not f.Codegen.has_symbol then None
              else
                Some
                  {
                    Cet_eh.Dwarf_info.sp_name = f.Codegen.frag_name;
                    sp_low_pc = addr_of f.Codegen.start;
                    sp_high_pc = addr_of f.Codegen.stop;
                    sp_external = f.Codegen.global;
                  })
            out.fragments;
      }
  in
  let exec = Consts.shf_alloc lor Consts.shf_execinstr in
  let rw = Consts.shf_alloc lor Consts.shf_write in
  let sections =
    [
      Image.section ~name:".plt" ~vaddr:plt_vaddr ~flags:exec ~addralign:16 plt;
      Image.section ~name:".text" ~vaddr:text_vaddr ~flags:exec ~addralign:16 text;
    ]
    @ (if rodata = "" then []
       else [ Image.section ~name:".rodata" ~vaddr:rodata_vaddr ~addralign:16 rodata ])
    @ [
        Image.section ~name:".eh_frame_hdr" ~vaddr:hdr_vaddr ~addralign:4 eh_frame_hdr;
        Image.section ~name:".eh_frame" ~vaddr:eh_frame_vaddr ~addralign:8 eh_frame;
      ]
    @ (if except_table = "" then []
       else
         [
           Image.section ~name:".gcc_except_table" ~vaddr:gcc_except_vaddr ~addralign:4
             except_table;
         ])
    @ [
        Image.section ~name:".got.plt" ~vaddr:got_vaddr ~flags:rw ~addralign:ptr
          ~entsize:ptr
          (String.make got_size '\x00');
        Image.section ~name:".data" ~vaddr:data_vaddr ~flags:rw data;
        Image.section ~name:".debug_abbrev" ~vaddr:0 ~flags:0 dwarf_abbrev;
        Image.section ~name:".debug_info" ~vaddr:0 ~flags:0 dwarf_info;
        Image.section ~name:".debug_str" ~vaddr:0 ~flags:0 dwarf_str;
      ]
  in
  let image =
    {
      Image.arch;
      machine = None;
      pie = opts.pie;
      cet_note = opts.cf_protection <> Options.Cf_none;
      entry = addr_of (List.hd out.fragments).Codegen.start;
      sections;
      symbols = file_symbol :: func_symbols;
      dynsyms;
      plt_relocs;
    }
  in
  let truth =
    List.filter_map
      (fun f ->
        if f.Codegen.is_function then Some (f.Codegen.frag_name, addr_of f.Codegen.start)
        else None)
      out.fragments
  in
  { image; truth; fragment_extents; plt_entries }

let compile ?(strip = false) opts p = Cet_elf.Writer.write ~strip (link opts p).image
