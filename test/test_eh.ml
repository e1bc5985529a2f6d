(* Tests for cet_eh: DWARF pointer encodings, .eh_frame CIE/FDE, LSDA. *)

module W = Cet_util.Bytesio.W
module R = Cet_util.Bytesio.R
module PE = Cet_eh.Pointer_enc
module EF = Cet_eh.Eh_frame
module Lsda = Cet_eh.Lsda

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Pointer encodings                                                  *)
(* ------------------------------------------------------------------ *)

let test_pe_pcrel_roundtrip () =
  let w = W.create () in
  PE.write w ~enc:PE.pcrel_sdata4 ~field_addr:0x2000 ~value:0x1500;
  check Alcotest.int "size" 4 (W.length w);
  let r = R.of_string (W.contents w) in
  check Alcotest.int "value" 0x1500 (PE.read r ~enc:PE.pcrel_sdata4 ~field_addr:0x2000)

let test_pe_abs_roundtrip () =
  let w = W.create () in
  PE.write w ~enc:PE.udata4 ~field_addr:0 ~value:0xDEAD;
  let r = R.of_string (W.contents w) in
  check Alcotest.int "value" 0xDEAD (PE.read r ~enc:PE.udata4 ~field_addr:999)

let test_pe_negative_pcrel () =
  (* pcrel to a lower address must encode negatively and read back. *)
  let w = W.create () in
  PE.write w ~enc:PE.pcrel_sdata4 ~field_addr:0x5000 ~value:0x1000;
  let r = R.of_string (W.contents w) in
  check Alcotest.int "value" 0x1000 (PE.read r ~enc:PE.pcrel_sdata4 ~field_addr:0x5000)

let test_pe_sizes () =
  check Alcotest.(option int) "pcrel sdata4" (Some 4) (PE.size PE.pcrel_sdata4);
  check Alcotest.(option int) "uleb" None (PE.size PE.uleb)

let test_pe_omit_rejected () =
  let r = R.of_string "\x00\x00\x00\x00" in
  Alcotest.check_raises "omit" (Invalid_argument "Pointer_enc.read: omit") (fun () ->
      ignore (PE.read r ~enc:PE.omit ~field_addr:0))

(* ------------------------------------------------------------------ *)
(* .eh_frame                                                          *)
(* ------------------------------------------------------------------ *)

let frames_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : EF.frame) (y : EF.frame) ->
         x.pc_begin = y.pc_begin && x.pc_range = y.pc_range && x.lsda = y.lsda)
       a b

let test_eh_frame_plain_roundtrip () =
  let frames =
    [
      { EF.pc_begin = 0x1000; pc_range = 0x40; lsda = None };
      { EF.pc_begin = 0x1040; pc_range = 0x123; lsda = None };
    ]
  in
  let bytes = EF.encode ~vaddr:0x5000 ~personality:0 frames in
  check Alcotest.bool "roundtrip" true (frames_equal frames (EF.decode ~vaddr:0x5000 bytes))

let test_eh_frame_lsda_roundtrip () =
  let frames =
    [
      { EF.pc_begin = 0x1000; pc_range = 0x40; lsda = None };
      { EF.pc_begin = 0x1040; pc_range = 0x80; lsda = Some 0x9000 };
      { EF.pc_begin = 0x10c0; pc_range = 0x20; lsda = Some 0x9040 };
    ]
  in
  let bytes = EF.encode ~vaddr:0x5000 ~personality:0x800 frames in
  let decoded = EF.decode ~vaddr:0x5000 bytes in
  (* Plain frames come from the zR CIE, LSDA frames from the zPLR CIE; the
     decoder returns them grouped, so compare as sets. *)
  let sort = List.sort (fun (a : EF.frame) b -> compare a.pc_begin b.pc_begin) in
  check Alcotest.bool "roundtrip" true (frames_equal (sort frames) (sort decoded))

let test_eh_frame_size_vaddr_independent () =
  let frames = [ { EF.pc_begin = 0x1000; pc_range = 0x40; lsda = Some 0x9000 } ] in
  let a = EF.encode ~vaddr:0 ~personality:0x800 frames in
  let b = EF.encode ~vaddr:0x123456 ~personality:0x800 frames in
  check Alcotest.int "same size" (String.length a) (String.length b)

let test_eh_frame_empty () =
  let bytes = EF.encode ~vaddr:0 ~personality:0 [] in
  check Alcotest.int "terminator only" 4 (String.length bytes);
  check Alcotest.(list reject) "no frames" []
    (List.map (fun _ -> Alcotest.fail "frame") (EF.decode ~vaddr:0 bytes))

let test_eh_frame_records_aligned () =
  (* Each record length must keep subsequent records 4-byte aligned. *)
  let frames = [ { EF.pc_begin = 0x1111; pc_range = 7; lsda = None } ] in
  let bytes = EF.encode ~vaddr:0 ~personality:0 frames in
  check Alcotest.int "aligned size" 0 (String.length bytes mod 4)

let qcheck_eh_frame_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (map3
           (fun b r l ->
             {
               EF.pc_begin = 0x1000 + (b land 0xFFFF);
               pc_range = 1 + (r land 0xFFF);
               lsda = (if l land 1 = 0 then None else Some (0x20000 + (l land 0xFFF)));
             })
           (int_bound 0xFFFF) (int_bound 0xFFF) (int_bound 0xFFFF)))
  in
  QCheck.Test.make ~name:"eh_frame roundtrip" ~count:100 (QCheck.make gen) (fun frames ->
      let bytes = EF.encode ~vaddr:0x7000 ~personality:0x4444 frames in
      let sort = List.sort (fun (a : EF.frame) b -> compare (a.pc_begin, a.lsda) (b.pc_begin, b.lsda)) in
      frames_equal (sort frames) (sort (EF.decode ~vaddr:0x7000 bytes)))

(* [size] is the length of the encoding, computed without encoding: for
   no frames, plain frames only, LSDA frames only, and a mix. *)
let qcheck_eh_frame_size =
  let frames kind =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (map
           (fun (coin, b, r, l) ->
             let lsda = match kind with `Plain -> false | `Lsda -> true | `Mixed -> coin in
             {
               EF.pc_begin = 0x1000 + b;
               pc_range = 1 + r;
               lsda = (if lsda then Some (0x20000 + l) else None);
             })
           (quad bool (int_bound 0xFFFF) (int_bound 0xFFF) (int_bound 0xFFF))))
  in
  let gen = QCheck.Gen.oneof [ QCheck.Gen.return []; frames `Plain; frames `Lsda; frames `Mixed ] in
  QCheck.Test.make ~name:"eh_frame size = encoded length" ~count:200 (QCheck.make gen)
    (fun frames -> EF.size frames = String.length (EF.encode ~vaddr:0x7000 ~personality:0x4444 frames))

(* ------------------------------------------------------------------ *)
(* LSDA                                                               *)
(* ------------------------------------------------------------------ *)

let sample_lsda =
  {
    Lsda.call_sites =
      [
        { Lsda.cs_start = 0x10; cs_len = 0x20; cs_landing_pad = 0x80; cs_action = 1 };
        { Lsda.cs_start = 0x40; cs_len = 0x8; cs_landing_pad = 0; cs_action = 0 };
        { Lsda.cs_start = 0x50; cs_len = 0x10; cs_landing_pad = 0x95; cs_action = 1 };
      ];
    type_count = 2;
  }

let test_lsda_roundtrip () =
  let bytes = Lsda.encode sample_lsda in
  let d = Lsda.decode bytes ~off:0 in
  check Alcotest.int "sites" 3 (List.length d.call_sites);
  check Alcotest.int "types" 2 d.type_count;
  List.iter2
    (fun (a : Lsda.call_site) (b : Lsda.call_site) ->
      check Alcotest.int "start" a.cs_start b.cs_start;
      check Alcotest.int "len" a.cs_len b.cs_len;
      check Alcotest.int "lp" a.cs_landing_pad b.cs_landing_pad)
    sample_lsda.call_sites d.call_sites

let test_lsda_no_types () =
  let l = { Lsda.call_sites = sample_lsda.call_sites; type_count = 0 } in
  let d = Lsda.decode (Lsda.encode l) ~off:0 in
  check Alcotest.int "types" 0 d.type_count;
  check Alcotest.int "sites" 3 (List.length d.call_sites)

let test_lsda_landing_pads () =
  check Alcotest.(list int) "pads" [ 0x1080; 0x1095 ]
    (Lsda.landing_pads sample_lsda ~func_start:0x1000)

let test_lsda_table_offsets () =
  let lsdas = [ sample_lsda; { sample_lsda with type_count = 0 }; sample_lsda ] in
  let table, offsets = Lsda.build_table lsdas in
  check Alcotest.int "count" 3 (List.length offsets);
  List.iter (fun off -> check Alcotest.int "aligned" 0 (off mod 4)) offsets;
  (* Each offset decodes back to its LSDA. *)
  List.iter2
    (fun l off ->
      let d = Lsda.decode table ~off in
      check Alcotest.int "site count" (List.length l.Lsda.call_sites)
        (List.length d.Lsda.call_sites))
    lsdas offsets

let qcheck_lsda_roundtrip =
  let gen =
    QCheck.Gen.(
      map2
        (fun sites types ->
          {
            Lsda.call_sites =
              List.map
                (fun (a, b, c) ->
                  {
                    Lsda.cs_start = a land 0xFFFF;
                    cs_len = 1 + (b land 0xFFF);
                    cs_landing_pad = c land 0xFFFF;
                    cs_action = (if c land 1 = 0 then 0 else 1);
                  })
                sites;
            type_count = types;
          })
        (list_size (int_range 0 12) (triple (int_bound 0xFFFF) (int_bound 0xFFF) (int_bound 0xFFFF)))
        (int_bound 4))
  in
  QCheck.Test.make ~name:"lsda roundtrip" ~count:200 (QCheck.make gen) (fun l ->
      let d = Lsda.decode (Lsda.encode l) ~off:0 in
      List.length d.call_sites = List.length l.call_sites
      && List.for_all2
           (fun (a : Lsda.call_site) (b : Lsda.call_site) ->
             a.cs_start = b.cs_start && a.cs_len = b.cs_len
             && a.cs_landing_pad = b.cs_landing_pad)
           l.call_sites d.call_sites)

(* ------------------------------------------------------------------ *)
(* .eh_frame_hdr                                                      *)
(* ------------------------------------------------------------------ *)

module EFH = Cet_eh.Eh_frame_hdr

let test_eh_frame_hdr_roundtrip () =
  let entries =
    [
      { EFH.initial_loc = 0x3000; fde_addr = 0x9040 };
      { EFH.initial_loc = 0x1000; fde_addr = 0x9000 };
      { EFH.initial_loc = 0x2000; fde_addr = 0x9020 };
    ]
  in
  let bytes = EFH.encode ~vaddr:0x8000 ~eh_frame_vaddr:0x9000 entries in
  check Alcotest.int "size formula" (EFH.size 3) (String.length bytes);
  let decoded = EFH.decode ~vaddr:0x8000 bytes in
  (* Entries come back sorted by initial location. *)
  check Alcotest.(list int) "sorted locs" [ 0x1000; 0x2000; 0x3000 ]
    (List.map (fun (e : EFH.entry) -> e.initial_loc) decoded);
  check Alcotest.(list int) "fde addrs" [ 0x9000; 0x9020; 0x9040 ]
    (List.map (fun (e : EFH.entry) -> e.fde_addr) decoded)

let test_eh_frame_hdr_matches_frames () =
  (* Integration: in a linked binary the header indexes exactly the FDEs. *)
  let prog =
    {
      Cet_compiler.Ir.prog_name = "t";
      lang = Cet_compiler.Ir.C;
      funcs =
        [
          Cet_compiler.Ir.func "main" [ Cet_compiler.Ir.Call (Cet_compiler.Ir.Local "f") ];
          Cet_compiler.Ir.func "f" [ Cet_compiler.Ir.Compute 2 ];
        ];
      extra_imports = [];
    }
  in
  let bytes = Cet_compiler.Link.compile Cet_compiler.Options.default prog in
  let reader = Cet_elf.Reader.read bytes in
  let hdr = Option.get (Cet_elf.Reader.find_section reader ".eh_frame_hdr") in
  let frame_sec = Option.get (Cet_elf.Reader.find_section reader ".eh_frame") in
  let entries = EFH.decode ~vaddr:hdr.vaddr hdr.data in
  let frames = EF.decode ~vaddr:frame_sec.vaddr frame_sec.data in
  check Alcotest.int "one entry per fde" (List.length frames) (List.length entries);
  let frame_locs =
    List.sort compare (List.map (fun (f : EF.frame) -> f.pc_begin) frames)
  in
  check Alcotest.(list int) "same locations" frame_locs
    (List.map (fun (e : EFH.entry) -> e.initial_loc) entries);
  (* Every fde_addr points at a record whose pc_begin matches. *)
  List.iter
    (fun (e : EFH.entry) ->
      let off = e.fde_addr - frame_sec.vaddr in
      check Alcotest.bool "fde in section" true (off > 0 && off < frame_sec.size))
    entries

(* ------------------------------------------------------------------ *)
(* DWARF debug info                                                   *)
(* ------------------------------------------------------------------ *)

module DI = Cet_eh.Dwarf_info

let sample_di =
  {
    DI.cu_name = "prog.c";
    producer = "gcc (synthetic)";
    subprograms =
      [
        { DI.sp_name = "main"; sp_low_pc = 0x1120; sp_high_pc = 0x11a0; sp_external = true };
        { DI.sp_name = "helper"; sp_low_pc = 0x11a0; sp_high_pc = 0x11c4; sp_external = false };
        { DI.sp_name = "helper.cold"; sp_low_pc = 0x2000; sp_high_pc = 0x2010; sp_external = false };
      ];
  }

let test_dwarf_roundtrip () =
  List.iter
    (fun ptr_size ->
      let ab, info, str = DI.encode ~ptr_size sample_di in
      let d = DI.decode ~debug_abbrev:ab ~debug_info:info ~debug_str:str in
      check Alcotest.string "cu name" sample_di.DI.cu_name d.DI.cu_name;
      check Alcotest.string "producer" sample_di.DI.producer d.DI.producer;
      check Alcotest.int "count" 3 (List.length d.DI.subprograms);
      List.iter2
        (fun (a : DI.subprogram) (b : DI.subprogram) ->
          check Alcotest.string "name" a.sp_name b.sp_name;
          check Alcotest.int "low" a.sp_low_pc b.sp_low_pc;
          check Alcotest.int "high" a.sp_high_pc b.sp_high_pc;
          check Alcotest.bool "ext" a.sp_external b.sp_external)
        sample_di.DI.subprograms d.DI.subprograms)
    [ 4; 8 ]

let qcheck_dwarf_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun names ->
          {
            DI.cu_name = "t.c";
            producer = "p";
            subprograms =
              List.mapi
                (fun i n ->
                  {
                    DI.sp_name = Printf.sprintf "f%d_%d" i (n land 0xFF);
                    sp_low_pc = 0x1000 + (i * 64);
                    sp_high_pc = 0x1000 + (i * 64) + 32 + (n land 31);
                    sp_external = n land 1 = 0;
                  })
                names;
          })
        (list_size (int_range 0 40) (int_bound 10000)))
  in
  QCheck.Test.make ~name:"dwarf_info roundtrip" ~count:100 (QCheck.make gen) (fun di ->
      let ab, info, str = DI.encode ~ptr_size:8 di in
      let d = DI.decode ~debug_abbrev:ab ~debug_info:info ~debug_str:str in
      d.DI.subprograms = di.DI.subprograms)

let suite =
  [
    ( "eh.pointer_enc",
      [
        Alcotest.test_case "pcrel roundtrip" `Quick test_pe_pcrel_roundtrip;
        Alcotest.test_case "abs roundtrip" `Quick test_pe_abs_roundtrip;
        Alcotest.test_case "negative pcrel" `Quick test_pe_negative_pcrel;
        Alcotest.test_case "sizes" `Quick test_pe_sizes;
        Alcotest.test_case "omit rejected" `Quick test_pe_omit_rejected;
      ] );
    ( "eh.eh_frame",
      [
        Alcotest.test_case "plain roundtrip" `Quick test_eh_frame_plain_roundtrip;
        Alcotest.test_case "LSDA roundtrip" `Quick test_eh_frame_lsda_roundtrip;
        Alcotest.test_case "size independent of vaddr" `Quick test_eh_frame_size_vaddr_independent;
        Alcotest.test_case "empty section" `Quick test_eh_frame_empty;
        Alcotest.test_case "record alignment" `Quick test_eh_frame_records_aligned;
        qcheck qcheck_eh_frame_roundtrip;
        qcheck qcheck_eh_frame_size;
      ] );
    ( "eh.eh_frame_hdr",
      [
        Alcotest.test_case "roundtrip + sorting" `Quick test_eh_frame_hdr_roundtrip;
        Alcotest.test_case "indexes linked FDEs" `Quick test_eh_frame_hdr_matches_frames;
      ] );
    ( "eh.dwarf",
      [
        Alcotest.test_case "roundtrip (both classes)" `Quick test_dwarf_roundtrip;
        qcheck qcheck_dwarf_roundtrip;
      ] );
    ( "eh.lsda",
      [
        Alcotest.test_case "roundtrip" `Quick test_lsda_roundtrip;
        Alcotest.test_case "no types table" `Quick test_lsda_no_types;
        Alcotest.test_case "landing pads" `Quick test_lsda_landing_pads;
        Alcotest.test_case "table offsets" `Quick test_lsda_table_offsets;
        qcheck qcheck_lsda_roundtrip;
      ] );
  ]
