(* Tests for cet_elf: writer/reader roundtrips, symbols, PLT relocations,
   the CET property note, and stripping. *)

module Arch = Cet_x86.Arch
module Image = Cet_elf.Image
module Writer = Cet_elf.Writer
module Reader = Cet_elf.Reader
module Symbol = Cet_elf.Symbol
module Consts = Cet_elf.Consts

let check = Alcotest.check

let func ?(bind = Symbol.Global) ?(size = 0) name value =
  { Symbol.name; value; size; kind = Symbol.Func; bind; section = Some ".text" }

let sample_image ?(arch = Arch.X64) ?(pie = true) () =
  let text = String.make 64 '\x90' in
  let rodata = "tables" in
  {
    Image.arch;
    machine = None;
    pie;
    cet_note = true;
    entry = 0x1010;
    sections =
      [
        Image.section ~name:".text"
          ~flags:(Consts.shf_alloc lor Consts.shf_execinstr)
          ~addralign:16 ~vaddr:0x1000 text;
        Image.section ~name:".rodata" ~vaddr:0x2000 rodata;
      ];
    symbols =
      [
        func "main" 0x1010 ~size:16;
        func ~bind:Symbol.Local "helper" 0x1020 ~size:8;
        func ~bind:Symbol.Local "helper.cold" 0x1030;
      ];
    dynsyms = [ Symbol.undef_func "printf"; Symbol.undef_func "malloc" ];
    plt_relocs = [ (0x3018, "printf"); (0x3020, "malloc") ];
  }

let roundtrip ?arch ?pie () = Reader.read (Writer.write (sample_image ?arch ?pie ()))

let test_header_roundtrip () =
  let t = roundtrip () in
  check Alcotest.bool "arch" true (Reader.arch t = Arch.X64);
  check Alcotest.bool "pie" true (Reader.pie t);
  check Alcotest.int "entry" 0x1010 (Reader.entry t)

let test_header_x86_exec () =
  let t = roundtrip ~arch:Arch.X86 ~pie:false () in
  check Alcotest.bool "arch" true (Reader.arch t = Arch.X86);
  check Alcotest.bool "not pie" false (Reader.pie t)

let test_sections_roundtrip () =
  let t = roundtrip () in
  let text = Option.get (Reader.find_section t ".text") in
  check Alcotest.int "text vaddr" 0x1000 text.vaddr;
  check Alcotest.int "text size" 64 text.size;
  check Alcotest.string "text data" (String.make 64 '\x90') text.data;
  let ro = Option.get (Reader.find_section t ".rodata") in
  check Alcotest.string "rodata" "tables" ro.data;
  check Alcotest.bool "missing section" true (Reader.find_section t ".bss" = None)

let test_symbols_roundtrip () =
  let t = roundtrip () in
  let syms = Reader.symbols t in
  check Alcotest.int "count" 3 (List.length syms);
  let main = List.find (fun (s : Symbol.t) -> s.name = "main") syms in
  check Alcotest.int "main value" 0x1010 main.value;
  check Alcotest.int "main size" 16 main.size;
  check Alcotest.bool "main kind" true (main.kind = Symbol.Func);
  check Alcotest.bool "main bind" true (main.bind = Symbol.Global);
  check Alcotest.bool "main section" true (main.section = Some ".text");
  let cold = List.find (fun (s : Symbol.t) -> s.name = "helper.cold") syms in
  check Alcotest.bool "cold is local" true (cold.bind = Symbol.Local)

let test_locals_before_globals () =
  (* ELF requires local symbols to precede globals in the table. *)
  let t = roundtrip () in
  let binds = List.map (fun (s : Symbol.t) -> s.bind) (Reader.symbols t) in
  let rec check_order seen_global = function
    | [] -> true
    | Symbol.Local :: _ when seen_global -> false
    | Symbol.Local :: rest -> check_order false rest
    | _ :: rest -> check_order true rest
  in
  check Alcotest.bool "locals first" true (check_order false binds)

let test_dynsyms_and_plt_relocs () =
  let t = roundtrip () in
  let dyn = Reader.dyn_symbols t in
  check Alcotest.int "dynsym count (with null)" 3 (Array.length dyn);
  check Alcotest.string "null first" "" dyn.(0).Symbol.name;
  let relocs = Reader.plt_relocs t in
  check
    Alcotest.(list (pair int string))
    "relocs" [ (0x3018, "printf"); (0x3020, "malloc") ] relocs

let test_plt_relocs_x86_rel () =
  (* x86 uses REL (8-byte entries); the reader must parse those too. *)
  let t = roundtrip ~arch:Arch.X86 () in
  check
    Alcotest.(list (pair int string))
    "relocs" [ (0x3018, "printf"); (0x3020, "malloc") ]
    (Reader.plt_relocs t)

let test_cet_note () =
  let t = roundtrip () in
  check Alcotest.bool "cet enabled" true (Reader.cet_enabled t)

let test_strip () =
  let bytes = Writer.write (sample_image ()) in
  let stripped = Strip.strip bytes in
  check Alcotest.bool "smaller" true (String.length stripped < String.length bytes);
  let t = Reader.read stripped in
  check Alcotest.int "no symbols" 0 (List.length (Reader.symbols t));
  (* Everything the analyses need survives. *)
  check Alcotest.bool "text" true (Reader.find_section t ".text" <> None);
  check Alcotest.int "dynsyms survive" 3 (Array.length (Reader.dyn_symbols t));
  check Alcotest.int "relocs survive" 2 (List.length (Reader.plt_relocs t));
  check Alcotest.bool "cet note survives" true (Reader.cet_enabled t)

let test_write_strip_equals_strip () =
  let img = sample_image () in
  let a = Writer.write ~strip:true img in
  let b = Strip.strip (Writer.write img) in
  check Alcotest.string "same bytes" a b

let test_to_image_roundtrip () =
  let img = sample_image () in
  let img2 = Strip.to_image (Reader.read (Writer.write img)) in
  check Alcotest.string "re-serialise stable" (Writer.write img2)
    (Writer.write (Strip.to_image (Reader.read (Writer.write img2))))

let test_malformed () =
  let raises s = try ignore (Reader.read s); false with Reader.Malformed _ -> true in
  check Alcotest.bool "empty" true (raises "");
  check Alcotest.bool "bad magic" true (raises (String.make 64 'X'));
  check Alcotest.bool "truncated" true (raises "\x7fELF");
  let good = Writer.write (sample_image ()) in
  let corrupt = String.sub good 0 (String.length good / 2) in
  check Alcotest.bool "truncated tables" true (raises corrupt)

let test_entry_alignment_of_sections () =
  (* Section data with addralign must land on aligned file offsets. *)
  let bytes = Writer.write (sample_image ()) in
  let t = Reader.read bytes in
  let text = Option.get (Reader.find_section t ".text") in
  (* Find the .text content in the file: it must appear intact. *)
  check Alcotest.bool "text content embedded" true
    (let rec search i =
       if i + text.size > String.length bytes then false
       else if String.sub bytes i text.size = text.data then i mod 16 = 0
       else search (i + 1)
     in
     search 0)

let suite =
  [
    ( "elf",
      [
        Alcotest.test_case "header roundtrip" `Quick test_header_roundtrip;
        Alcotest.test_case "x86 non-PIE header" `Quick test_header_x86_exec;
        Alcotest.test_case "sections roundtrip" `Quick test_sections_roundtrip;
        Alcotest.test_case "symbols roundtrip" `Quick test_symbols_roundtrip;
        Alcotest.test_case "locals precede globals" `Quick test_locals_before_globals;
        Alcotest.test_case "dynsyms + rela.plt" `Quick test_dynsyms_and_plt_relocs;
        Alcotest.test_case "rel.plt (x86)" `Quick test_plt_relocs_x86_rel;
        Alcotest.test_case "CET property note" `Quick test_cet_note;
        Alcotest.test_case "strip" `Quick test_strip;
        Alcotest.test_case "strip = write ~strip" `Quick test_write_strip_equals_strip;
        Alcotest.test_case "to_image stable" `Quick test_to_image_roundtrip;
        Alcotest.test_case "malformed inputs" `Quick test_malformed;
        Alcotest.test_case "section alignment" `Quick test_entry_alignment_of_sections;
      ] );
  ]
