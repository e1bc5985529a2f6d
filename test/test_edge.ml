(* Additional edge-case coverage: decoder prefix handling, assembler
   corner cases, ELF writer variants, legacy binaries, determinism. *)

module Arch = Cet_x86.Arch
module Dec = Cet_x86.Decoder
module Enc = Cet_x86.Encoder
module Insn = Cet_x86.Insn
module Reg = Cet_x86.Register
module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate

let check = Alcotest.check

let decode_one arch bytes =
  match Dec.decode arch bytes ~base:0x1000 ~off:0 with
  | Ok i -> i
  | Error m -> Alcotest.failf "decode error: %s" m

(* ------------------------------------------------------------------ *)
(* Decoder prefixes and odd encodings                                 *)
(* ------------------------------------------------------------------ *)

let test_operand_size_imm () =
  (* 66 81 C0 imm16: add ax, imm16 — the immediate shrinks to 2 bytes. *)
  let i = decode_one Arch.X64 "\x66\x81\xc0\x34\x12" in
  check Alcotest.int "len" 5 i.len;
  (* without 66: imm32 *)
  let i = decode_one Arch.X64 "\x81\xc0\x34\x12\x00\x00" in
  check Alcotest.int "len32" 6 i.len

let test_segment_prefix_skipped () =
  (* 64 8B 04 25 disp32: mov eax, fs:[disp32] *)
  let i = decode_one Arch.X64 "\x64\x8b\x04\x25\x10\x00\x00\x00" in
  check Alcotest.int "len" 8 i.len

let test_f3_0f1e_non_endbr () =
  (* F3 0F 1E C0 is a reserved hint (NOP), not an end-branch. *)
  let i = decode_one Arch.X64 "\xf3\x0f\x1e\xc0" in
  check Alcotest.bool "not endbr" true (i.kind = Dec.Other);
  check Alcotest.int "len" 4 i.len

let test_plain_0f1e_modrm () =
  (* 0F 1E /r without F3 is also a NOP with a ModRM operand. *)
  let i = decode_one Arch.X64 "\x0f\x1e\x40\x07" in
  check Alcotest.int "len" 4 i.len

let test_rex_then_prefix_invalid_order () =
  (* REX must immediately precede the opcode; 48 66 89 E5 makes 66 an
     opcode position after REX — the decoder reads 0x66 as... it will treat
     0x48 as REX then 0x66 cannot restart prefixes, so it decodes 0x66 as
     an unknown opcode.  The decoder must fail cleanly, not crash. *)
  match Dec.decode Arch.X64 "\x48\x66\x89\xe5" ~base:0 ~off:0 with
  | Ok _ | Error _ -> ()

let test_prefix_overflow_rejected () =
  let bytes = String.make 20 '\x66' ^ "\x90" in
  match Dec.decode Arch.X64 bytes ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "15+ prefixes must be rejected"

let test_mid_stream_offset () =
  let blob = Enc.encode Arch.X64 Insn.Nop ^ Enc.encode Arch.X64 Insn.Ret in
  match Dec.decode Arch.X64 blob ~base:0x2000 ~off:1 with
  | Ok i ->
    check Alcotest.int "addr" 0x2001 i.addr;
    check Alcotest.bool "ret" true (i.kind = Dec.Ret)
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_every_single_byte_terminates () =
  (* Robustness: decoding any single byte either succeeds (length 1) or
     fails; never loops or crashes. *)
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    match Dec.decode Arch.X64 s ~base:0 ~off:0 with
    | Ok i -> check Alcotest.int "len 1" 1 i.len
    | Error _ -> ()
  done

let test_random_bytes_terminate () =
  (* Sweep over pseudo-random garbage always terminates and never reports
     an instruction longer than 15 bytes. *)
  let g = Cet_util.Prng.create 4242 in
  let blob = String.init 4096 (fun _ -> Char.chr (Cet_util.Prng.int g 256)) in
  List.iter
    (fun arch ->
      let sweep = Sweep.blob arch blob in
      for i = 0 to Linear.length sweep - 1 do
        let len = Linear.len sweep i in
        if len < 1 || len > 15 then Alcotest.failf "bad length %d" len
      done)
    [ Arch.X64; Arch.X86 ]

(* 0x06 (push es) is undecodable in 64-bit mode — a convenient inline-data
   stand-in for resynchronisation tests. *)
let garbage n = String.make n '\x06'
let nop = "\x90"
let endbr64 = "\xf3\x0f\x1e\xfa"

let test_resync_counts_runs () =
  (* A desynchronised run is ONE event however many bytes it spans: a
     40-byte jump table must not report 40 resynchronisations. *)
  let s = Sweep.blob Arch.X64 (nop ^ garbage 40 ^ nop) in
  check Alcotest.int "one run, one event" 1 s.Linear.resync_errors;
  let s = Sweep.blob Arch.X64 (nop ^ garbage 6 ^ nop ^ garbage 3 ^ nop) in
  check Alcotest.int "two runs, two events" 2 s.Linear.resync_errors;
  let s = Sweep.blob Arch.X64 (nop ^ nop ^ nop) in
  check Alcotest.int "clean code, no events" 0 s.Linear.resync_errors

let test_resync_anchored_counts_runs () =
  (* Same rule for the anchored scan: the whole untrusted stretch up to
     the next end-branch anchor is a single event. *)
  let resyncs code =
    (Substrate.facts ~anchored:true
       (Substrate.of_bytes (Test_substrate.image_with_text Arch.X64 code)))
      .Substrate.f_resync_errors
  in
  check Alcotest.int "one event to anchor" 1 (resyncs (nop ^ garbage 8 ^ endbr64 ^ nop));
  check Alcotest.int "two events" 2
    (resyncs (nop ^ garbage 8 ^ endbr64 ^ nop ^ garbage 5 ^ endbr64 ^ nop));
  check Alcotest.int "clean code" 0 (resyncs (endbr64 ^ nop ^ nop))

(* ------------------------------------------------------------------ *)
(* Assembler corners                                                  *)
(* ------------------------------------------------------------------ *)

let test_table_entries () =
  (* An in-text jump table holds absolute addresses: 8 bytes each on
     x86-64, and a label may sit in the middle of data. *)
  let items =
    [
      Items.Label "t";
      Items.Table { entries = [ "t"; "x" ]; entry_size = 8 };
      Items.Label "x";
      Items.Ins Insn.Ret;
    ]
  in
  let bytes = Items.assemble ~arch:Arch.X64 ~base:0x401000 ~resolve:(fun _ -> 0) items in
  check Alcotest.string "two entries"
    "00 10 40 00 00 00 00 00 10 10 40 00 00 00 00 00 c3"
    (Hexdump.bytes_inline bytes)

let test_align_already_aligned () =
  let items = [ Items.Align 4; Items.Ins Insn.Ret ] in
  let bytes = Items.assemble ~arch:Arch.X64 ~base:0x1000 ~resolve:(fun _ -> 0) items in
  check Alcotest.int "no padding" 1 (String.length bytes)

let test_mov_mi_lbl () =
  let items = [ Items.Mov_mi_lbl (Insn.mem_base Reg.RSP 4, "fn") ] in
  let bytes = Items.assemble ~arch:Arch.X86 ~base:0 ~resolve:(fun _ -> 0x8049100) items in
  (* mov dword [esp+4], 0x8049100 = C7 44 24 04 00 91 04 08 *)
  check Alcotest.string "store label" "c7 44 24 04 00 91 04 08"
    (Hexdump.bytes_inline bytes)

let test_undefined_label_raises () =
  let items = [ Items.Jmp_lbl "nowhere" ] in
  match
    Items.assemble ~arch:Arch.X64 ~base:0
      ~resolve:(fun l -> invalid_arg ("unknown " ^ l))
      items
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure"

(* ------------------------------------------------------------------ *)
(* ELF writer variants                                                *)
(* ------------------------------------------------------------------ *)

let test_image_without_dynsyms () =
  let img =
    {
      Cet_elf.Image.arch = Arch.X64;
      machine = None;
      pie = false;
      cet_note = true;
      entry = 0x401000;
      sections =
        [
          Cet_elf.Image.section ~name:".text" ~vaddr:0x401000
            ~flags:Cet_elf.(Consts.shf_alloc lor Consts.shf_execinstr)
            "\x90\xc3";
        ];
      symbols = [];
      dynsyms = [];
      plt_relocs = [];
    }
  in
  let t = Reader.read (Cet_elf.Writer.write img) in
  check Alcotest.bool "no dynsym section" true (Reader.find_section t ".dynsym" = None);
  check Alcotest.(list (pair int string)) "no relocs" [] (Reader.plt_relocs t);
  check Alcotest.bool "not pie" false (Reader.pie t)

let test_strip_idempotent () =
  let prog =
    { Ir.prog_name = "t"; lang = Ir.C; funcs = [ Ir.func "main" [ Ir.Compute 2 ] ];
      extra_imports = [] }
  in
  let bytes = Cet_elf.Writer.write (Link.link O.default prog).image in
  let s1 = Strip.strip bytes in
  let s2 = Strip.strip s1 in
  check Alcotest.string "idempotent" s1 s2

(* ------------------------------------------------------------------ *)
(* Legacy (non-CET) binaries                                          *)
(* ------------------------------------------------------------------ *)

let test_legacy_binary_analysis () =
  let prog =
    {
      Ir.prog_name = "legacy";
      lang = Ir.C;
      funcs =
        [
          Ir.func "main" [ Ir.Call (Ir.Local "a"); Ir.Call (Ir.Local "b") ];
          Ir.func "a" [ Ir.Compute 1 ];
          Ir.func ~linkage:Ir.Static "b" [ Ir.Compute 1 ];
          Ir.func ~address_taken:true "orphan" [ Ir.Compute 1 ];
        ];
      extra_imports = [];
    }
  in
  let opts = { O.default with cf_protection = O.Cf_none } in
  let res = Link.link opts prog in
  let reader = Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
  check Alcotest.bool "not cet" false (Reader.cet_enabled reader);
  let r = Core.Funseeker.analyze_st (Cet_disasm.Substrate.create reader) in
  check Alcotest.int "no endbr" 0 r.Core.Funseeker.endbr_total;
  (* Call targets still carry FunSeeker part of the way... *)
  check Alcotest.bool "finds called" true
    (List.mem (List.assoc "a" res.Link.truth) r.Core.Funseeker.functions);
  (* ...but the address-taken orphan is invisible: the paper's point that
     FunSeeker is designed for CET binaries. *)
  check Alcotest.bool "misses orphan" false
    (List.mem (List.assoc "orphan" res.Link.truth) r.Core.Funseeker.functions)

(* ------------------------------------------------------------------ *)
(* Determinism                                                        *)
(* ------------------------------------------------------------------ *)

let test_dataset_deterministic () =
  let profile =
    { Cet_corpus.Profile.coreutils with Cet_corpus.Profile.programs = 1; funcs_lo = 40; funcs_hi = 50 }
  in
  let capture () =
    let out = ref [] in
    Cet_corpus.Dataset.iter ~profiles:[ profile ] ~configs:[ O.default ] ~seed:5 ~scale:1.0
      (fun b -> out := Digest.string b.Cet_corpus.Dataset.stripped :: !out);
    !out
  in
  check Alcotest.(list string) "same digests" (capture ()) (capture ())

let test_linear_helpers () =
  let prog =
    {
      Ir.prog_name = "t";
      lang = Ir.C;
      funcs =
        [
          Ir.func "main"
            [ Ir.Call (Ir.Local "a"); Ir.Call (Ir.Import "printf"); Ir.If_else ([ Ir.Compute 1 ], [ Ir.Compute 1 ]) ];
          Ir.func "a" [ Ir.Compute 1 ];
        ];
      extra_imports = [];
    }
  in
  let res = Link.link O.default prog in
  let reader = Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
  let sweep = Substrate.sweep (Substrate.create reader) in
  (* index_of: exact hits only *)
  let first = Linear.addr sweep 0 in
  check Alcotest.int "index_of hit" 0 (Linear.index_of sweep first);
  check Alcotest.int "index_of miss" (-1) (Linear.index_of sweep (first + 1));
  (* the call arrays include PLT-bound calls even though call_targets
     drops them *)
  let ix = Cet_disasm.Substrate.indexes (Cet_disasm.Substrate.create reader) in
  check Alcotest.bool "plt call site exists" true
    (Array.exists (fun t -> not (Linear.in_range sweep t)) ix.Cet_disasm.Substrate.call_tgts);
  Array.iter
    (fun t -> check Alcotest.bool "targets in range" true (Linear.in_range sweep t))
    ix.call_targets;
  (* jmp_targets exclude conditional branches *)
  let jcc_targets =
    List.init (Linear.length sweep) (Linear.ins sweep)
    |> List.filter_map (fun (i : Dec.ins) ->
           match i.kind with Dec.Jcc_direct t -> Some t | _ -> None)
  in
  check Alcotest.bool "has jcc" true (jcc_targets <> []);
  check Alcotest.bool "join target in J" true (ix.jmp_targets <> [||])

let test_inline_tables_and_anchored_sweep () =
  let prog =
    {
      Ir.prog_name = "t";
      lang = Ir.C;
      funcs =
        [
          Ir.func "main"
            [
              Ir.Switch
                [ [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ] ];
              Ir.Call (Ir.Local "after");
            ];
          Ir.func "after" [ Ir.Compute 2 ];
        ];
      extra_imports = [];
    }
  in
  let opts = { O.default with jump_tables_in_text = true } in
  let res = Link.link opts prog in
  let reader = Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
  (* The jump table really is in .text: its bytes are swept as (garbage)
     instructions — the anchored scan withholds at least as many of them
     as the linear sweep emits... *)
  let st = Substrate.create reader in
  check Alcotest.bool "anchored keeps no more insns" true
    ((Substrate.facts ~anchored:true st).f_insns <= Linear.length (Substrate.sweep st));
  (* ...no .rodata table remains... *)
  check Alcotest.bool "no rodata table" true
    (match Reader.find_section reader ".rodata" with None -> true | Some s -> s.size = 0);
  (* ...and both sweeps still let FunSeeker find every function. *)
  let truth = List.sort_uniq compare (List.map snd res.Link.truth) in
  List.iter
    (fun anchored ->
      let r = Core.Funseeker.analyze_st ~anchored st in
      List.iter
        (fun a ->
          check Alcotest.bool
            (Printf.sprintf "found 0x%x (anchored=%b)" a anchored)
            true
            (List.mem a r.Core.Funseeker.functions))
        truth)
    [ false; true ]

let test_anchored_equals_linear_on_clean () =
  let prog =
    {
      Ir.prog_name = "t";
      lang = Ir.C;
      funcs = [ Ir.func "main" [ Ir.Compute 4; Ir.Call (Ir.Local "f") ]; Ir.func "f" [] ];
      extra_imports = [];
    }
  in
  let res = Link.link O.default prog in
  let reader = Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
  let st = Substrate.create reader in
  check Alcotest.bool "same facts" true
    (Substrate.facts st = Substrate.facts ~anchored:true st);
  check Alcotest.bool "same indexes" true
    (Substrate.indexes st = Substrate.indexes ~anchored:true st)

let test_props_keys_distinct () =
  let keys = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun j ->
          List.iter
            (fun c ->
              keys :=
                Core.Study.props_key
                  { Core.Study.endbr_at_head = e; dir_jmp_target = j; dir_call_target = c }
                :: !keys)
            [ true; false ])
        [ true; false ])
    [ true; false ];
  check Alcotest.int "8 distinct keys" 8 (List.length (List.sort_uniq compare !keys))

let suite =
  [
    ( "edge.decoder",
      [
        Alcotest.test_case "operand-size immediates" `Quick test_operand_size_imm;
        Alcotest.test_case "segment prefixes" `Quick test_segment_prefix_skipped;
        Alcotest.test_case "F3 0F 1E non-endbr" `Quick test_f3_0f1e_non_endbr;
        Alcotest.test_case "0F 1E nop form" `Quick test_plain_0f1e_modrm;
        Alcotest.test_case "rex ordering" `Quick test_rex_then_prefix_invalid_order;
        Alcotest.test_case "prefix overflow" `Quick test_prefix_overflow_rejected;
        Alcotest.test_case "mid-stream offset" `Quick test_mid_stream_offset;
        Alcotest.test_case "single bytes terminate" `Quick test_every_single_byte_terminates;
        Alcotest.test_case "random bytes terminate" `Quick test_random_bytes_terminate;
        Alcotest.test_case "resync counts runs" `Quick test_resync_counts_runs;
        Alcotest.test_case "anchored resync counts runs" `Quick
          test_resync_anchored_counts_runs;
      ] );
    ( "edge.asm",
      [
        Alcotest.test_case "table entries" `Quick test_table_entries;
        Alcotest.test_case "already aligned" `Quick test_align_already_aligned;
        Alcotest.test_case "mov_mi label" `Quick test_mov_mi_lbl;
        Alcotest.test_case "undefined label" `Quick test_undefined_label_raises;
      ] );
    ( "edge.elf",
      [
        Alcotest.test_case "image without dynsyms" `Quick test_image_without_dynsyms;
        Alcotest.test_case "strip idempotent" `Quick test_strip_idempotent;
      ] );
    ( "edge.analysis",
      [
        Alcotest.test_case "legacy binaries" `Quick test_legacy_binary_analysis;
        Alcotest.test_case "dataset deterministic" `Quick test_dataset_deterministic;
        Alcotest.test_case "linear helpers" `Quick test_linear_helpers;
        Alcotest.test_case "inline tables + anchored sweep" `Quick test_inline_tables_and_anchored_sweep;
        Alcotest.test_case "anchored = linear on clean code" `Quick test_anchored_equals_linear_on_clean;
        Alcotest.test_case "props keys distinct" `Quick test_props_keys_distinct;
      ] );
  ]
