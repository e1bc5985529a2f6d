(* Tests for the §VI ARM BTI extension: AArch64 codec, the mini backend's
   BTI placement rules, and the BTI seeker end-to-end. *)

module A64 = Cet_arm64.A64
module AC = Cet_arm64.A64_compile
module Seeker = Cet_arm64.Bti_seeker
module Ir = Cet_compiler.Ir

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

let word t = Int32.to_int (A64.encode t) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_encode_golden () =
  (* Reference words from the ARMv8-A manual / GNU as. *)
  check Alcotest.int "bti c" 0xD503245F (word (A64.Bti A64.Bti_c));
  check Alcotest.int "bti j" 0xD503249F (word (A64.Bti A64.Bti_j));
  check Alcotest.int "nop" 0xD503201F (word A64.Nop);
  check Alcotest.int "ret" 0xD65F03C0 (word A64.Ret);
  check Alcotest.int "bl +8" 0x94000002 (word (A64.Bl 8));
  check Alcotest.int "b -4" 0x17FFFFFF (word (A64.B (-4)));
  check Alcotest.int "br x16" 0xD61F0200 (word (A64.Br 16));
  check Alcotest.int "blr x16" 0xD63F0200 (word (A64.Blr 16));
  check Alcotest.int "stp x29,x30,[sp,#-16]!" 0xA9BF7BFD (word (A64.Stp_fp_lr 16));
  check Alcotest.int "ldp x29,x30,[sp],#16" 0xA8C17BFD (word (A64.Ldp_fp_lr 16));
  check Alcotest.int "sub sp,sp,#32" 0xD10083FF (word (A64.Sub_sp 32));
  check Alcotest.int "movz x0,#7" 0xD28000E0 (word (A64.Movz (0, 7)))

let test_encode_rejects () =
  let rejects t = try ignore (A64.encode t); false with Invalid_argument _ -> true in
  check Alcotest.bool "unaligned bl" true (rejects (A64.Bl 6));
  check Alcotest.bool "huge branch" true (rejects (A64.B (1 lsl 30)));
  check Alcotest.bool "bad reg" true (rejects (A64.Br 32));
  check Alcotest.bool "adrp non-page" true (rejects (A64.Adrp (0, 4097)))

let decode_one t ~base =
  A64.decode (A64.encode_bytes t) ~base ~off:0

let test_decode_classification () =
  let i = decode_one (A64.Bti A64.Bti_c) ~base:0x1000 in
  check Alcotest.bool "bti c" true (i.kind = A64.K_bti A64.Bti_c);
  let i = decode_one (A64.Bl 0x40) ~base:0x1000 in
  check Alcotest.bool "bl target" true (i.kind = A64.K_call 0x1040);
  let i = decode_one (A64.B (-8)) ~base:0x1000 in
  check Alcotest.bool "b backward" true (i.kind = A64.K_jmp 0xFF8);
  let i = decode_one (A64.Cbnz (3, 0x20)) ~base:0x1000 in
  check Alcotest.bool "cbnz" true (i.kind = A64.K_cond 0x1020);
  let i = decode_one A64.Ret ~base:0 in
  check Alcotest.bool "ret" true (i.kind = A64.K_ret);
  let i = decode_one (A64.Br 17) ~base:0 in
  check Alcotest.bool "br" true (i.kind = A64.K_indirect_jmp);
  let i = decode_one (A64.Blr 16) ~base:0 in
  check Alcotest.bool "blr" true (i.kind = A64.K_indirect_call);
  let i = decode_one (A64.Adrp (0, 0x3000)) ~base:0x1234 in
  check Alcotest.bool "adrp page" true (i.kind = A64.K_adrp 0x4000)

let test_decode_bounds () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check Alcotest.bool "unaligned" true
    (raises (fun () -> A64.decode "\x00\x00\x00\x00\x00" ~base:0 ~off:1));
  check Alcotest.bool "oob" true (raises (fun () -> A64.decode "ab" ~base:0 ~off:0))

let qcheck_branch_roundtrip =
  QCheck.Test.make ~name:"a64 branch displacement roundtrip" ~count:500
    QCheck.(map (fun x -> (x mod 0x100000) * 4) int)
    (fun disp ->
      let base = 0x400000 in
      match (decode_one (A64.Bl disp) ~base).kind with
      | A64.K_call t -> t = base + disp
      | _ -> false)

let test_sweep_walks_words () =
  let blob =
    String.concat ""
      (List.map A64.encode_bytes [ A64.Bti A64.Bti_c; A64.Nop; A64.Ret ])
  in
  let insns = A64.sweep blob ~base:0x100 in
  check Alcotest.int "count" 3 (List.length insns);
  check Alcotest.(list int) "addresses" [ 0x100; 0x104; 0x108 ]
    (List.map (fun (i : A64.ins) -> i.addr) insns)

(* ------------------------------------------------------------------ *)
(* Backend + seeker                                                   *)
(* ------------------------------------------------------------------ *)

let prog =
  {
    Ir.prog_name = "arm";
    lang = Ir.Cpp;
    funcs =
      [
        Ir.func "main"
          [
            Ir.Call (Ir.Local "a");
            Ir.Call_via_pointer "cb";
            Ir.Switch [ [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ] ];
            Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]);
          ];
        Ir.func "a" [ Ir.Compute 2 ];
        Ir.func ~linkage:Ir.Static "b" [ Ir.Compute 2 ];
        Ir.func ~linkage:Ir.Static ~address_taken:true "cb" [ Ir.Compute 1 ];
        Ir.func ~linkage:Ir.Static "z" [ Ir.Call (Ir.Local "b") ];
        Ir.func "zz" [ Ir.Call (Ir.Local "z") ];
      ];
    extra_imports = [];
  }

let compile ?(opts = AC.default_opts) p =
  let res = AC.compile opts p in
  (res, Cet_elf.Reader.read (Cet_elf.Writer.write ~strip:true res.image))

let bti_c_addrs reader =
  let text = Option.get (Cet_elf.Reader.find_section reader ".text") in
  List.filter_map
    (fun (i : A64.ins) -> if i.kind = A64.K_bti A64.Bti_c then Some i.addr else None)
    (A64.sweep text.data ~base:text.vaddr)

let test_machine_and_note () =
  let _, reader = compile prog in
  check Alcotest.int "EM_AARCH64" 183 (Cet_elf.Reader.machine reader);
  check Alcotest.bool "no x86 cet note" false (Cet_elf.Reader.cet_enabled reader)

let test_bti_placement () =
  let res, reader = compile prog in
  let cs = bti_c_addrs reader in
  let at name = List.assoc name res.AC.truth in
  check Alcotest.bool "main bti c" true (List.mem (at "main") cs);
  check Alcotest.bool "exported bti c" true (List.mem (at "a") cs);
  check Alcotest.bool "addr-taken bti c" true (List.mem (at "cb") cs);
  check Alcotest.bool "static no bti" false (List.mem (at "b") cs);
  (* Landing pads and switch cases use bti j, never bti c. *)
  let lps = Cet_disasm.Substrate.landing_pads (Cet_disasm.Substrate.create reader) in
  check Alcotest.int "one landing pad" 1 (Array.length lps);
  Array.iter (fun lp -> check Alcotest.bool "lp not bti c" false (List.mem lp cs)) lps

let test_seeker_exact () =
  let res, reader = compile prog in
  let truth = List.sort_uniq compare (List.map snd res.AC.truth) in
  let r = Seeker.analyze reader in
  check Alcotest.(list int) "exact identification" truth r.Seeker.functions;
  check Alcotest.bool "bti j separated" true (r.Seeker.bti_j_total >= 4)

let test_seeker_on_corpus_programs () =
  let profile = { Cet_corpus.Profile.spec with Cet_corpus.Profile.programs = 2 } in
  for index = 0 to 1 do
    let ir = Cet_corpus.Generator.program ~seed:77 ~profile ~index in
    let res, reader = compile ir in
    let truth = List.sort_uniq compare (List.map snd res.AC.truth) in
    let r = Seeker.analyze reader in
    let m = Cet_eval.Metrics.compare_sets ~truth ~found:r.Seeker.functions in
    if Cet_eval.Metrics.recall m < 99.0 then
      Alcotest.failf "program %d recall %.2f too low" index (Cet_eval.Metrics.recall m);
    if Cet_eval.Metrics.precision m < 99.0 then
      Alcotest.failf "program %d precision %.2f too low" index
        (Cet_eval.Metrics.precision m)
  done

let test_legacy_degrades () =
  (* Without BTI markers the seeker falls back to direct-call targets. *)
  let res, reader = compile ~opts:{ AC.bti = false; tail_calls = true } prog in
  let truth = List.sort_uniq compare (List.map snd res.AC.truth) in
  let r = Seeker.analyze reader in
  check Alcotest.int "no markers" 0 r.Seeker.bti_c_total;
  let m = Cet_eval.Metrics.compare_sets ~truth ~found:r.Seeker.functions in
  check Alcotest.bool "recall drops" true (Cet_eval.Metrics.recall m < 100.0)

let suite =
  [
    ( "arm.codec",
      [
        Alcotest.test_case "golden words" `Quick test_encode_golden;
        Alcotest.test_case "invalid operands" `Quick test_encode_rejects;
        Alcotest.test_case "classification" `Quick test_decode_classification;
        Alcotest.test_case "bounds" `Quick test_decode_bounds;
        Alcotest.test_case "sweep" `Quick test_sweep_walks_words;
        qcheck qcheck_branch_roundtrip;
      ] );
    ( "arm.bti",
      [
        Alcotest.test_case "machine / note" `Quick test_machine_and_note;
        Alcotest.test_case "bti placement" `Quick test_bti_placement;
        Alcotest.test_case "seeker exact" `Quick test_seeker_exact;
        Alcotest.test_case "seeker on corpus" `Quick test_seeker_on_corpus_programs;
        Alcotest.test_case "legacy degrades" `Quick test_legacy_degrades;
      ] );
  ]
