(* Tests for cet_x86: registers, encoder golden bytes, decoder, the
   encode→decode roundtrip property, and the assembler. *)

module Arch = Cet_x86.Arch
module Reg = Cet_x86.Register
module Insn = Cet_x86.Insn
module Enc = Cet_x86.Encoder
module Dec = Cet_x86.Decoder

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t
let hex s = Cet_util.Hexdump.bytes_inline s
let check_bytes name expected insn arch = check Alcotest.string name expected (hex (Enc.encode arch insn))

(* ------------------------------------------------------------------ *)
(* Registers                                                          *)
(* ------------------------------------------------------------------ *)

let test_register_roundtrip () =
  Array.iter
    (fun r -> check Alcotest.bool "of_index . index" true (Reg.of_index (Reg.index r) = r))
    Reg.all

let test_register_names () =
  check Alcotest.string "rax" "rax" (Reg.name64 Reg.RAX);
  check Alcotest.string "eax" "eax" (Reg.name32 Reg.RAX);
  check Alcotest.string "r11d" "r11d" (Reg.name32 Reg.R11);
  check Alcotest.bool "rex" true (Reg.needs_rex Reg.R8);
  check Alcotest.bool "no rex" false (Reg.needs_rex Reg.RDI)

(* ------------------------------------------------------------------ *)
(* Encoder golden bytes (checked against GNU as output)               *)
(* ------------------------------------------------------------------ *)

let test_encode_endbr () =
  check_bytes "endbr64" "f3 0f 1e fa" Insn.Endbr Arch.X64;
  check_bytes "endbr32" "f3 0f 1e fb" Insn.Endbr Arch.X86

let test_encode_branches () =
  check_bytes "call rel32" "e8 10 00 00 00" (Insn.Call_rel 0x10) Arch.X64;
  check_bytes "jmp rel32" "e9 fc ff ff ff" (Insn.Jmp_rel (-4)) Arch.X64;
  check_bytes "jmp rel8" "eb 05" (Insn.Jmp_rel8 5) Arch.X64;
  check_bytes "je rel32" "0f 84 00 01 00 00" (Insn.Jcc_rel (Insn.E, 0x100)) Arch.X64;
  check_bytes "jne rel8" "75 f0" (Insn.Jcc_rel8 (Insn.NE, -16)) Arch.X86

let test_encode_ret_stack () =
  check_bytes "ret" "c3" Insn.Ret Arch.X64;
  check_bytes "ret imm16" "c2 08 00" (Insn.Ret_imm 8) Arch.X86;
  check_bytes "push rbp" "55" (Insn.Push Reg.RBP) Arch.X64;
  check_bytes "push r12" "41 54" (Insn.Push Reg.R12) Arch.X64;
  check_bytes "pop rbx" "5b" (Insn.Pop Reg.RBX) Arch.X64;
  check_bytes "leave" "c9" Insn.Leave Arch.X86;
  check_bytes "push imm8" "6a 2a" (Insn.Push_imm 42) Arch.X86;
  check_bytes "push imm32" "68 00 10 00 00" (Insn.Push_imm 0x1000) Arch.X86

let test_encode_mov_alu () =
  check_bytes "mov rbp,rsp" "48 89 e5" (Insn.Mov_rr (Reg.RBP, Reg.RSP)) Arch.X64;
  check_bytes "mov ebp,esp" "89 e5" (Insn.Mov_rr (Reg.RBP, Reg.RSP)) Arch.X86;
  check_bytes "mov eax,imm" "b8 39 05 00 00" (Insn.Mov_ri (Reg.RAX, 1337)) Arch.X64;
  check_bytes "sub rsp,imm8" "48 83 ec 20" (Insn.Sub_ri (Reg.RSP, 0x20)) Arch.X64;
  check_bytes "sub esp,imm8" "83 ec 20" (Insn.Sub_ri (Reg.RSP, 0x20)) Arch.X86;
  check_bytes "add rsp,imm32" "48 81 c4 00 02 00 00" (Insn.Add_ri (Reg.RSP, 0x200)) Arch.X64;
  check_bytes "xor edx,edx" "31 d2" (Insn.Xor_rr (Reg.RDX, Reg.RDX)) Arch.X86;
  check_bytes "test rax,rax" "48 85 c0" (Insn.Test_rr (Reg.RAX, Reg.RAX)) Arch.X64

let test_encode_mem_forms () =
  (* mov rax, [rsp+8]: rsp base forces a SIB byte *)
  check_bytes "mov rax,[rsp+8]" "48 8b 44 24 08"
    (Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RSP 8)) Arch.X64;
  (* rbp base with zero displacement still needs mod=01 *)
  check_bytes "mov rax,[rbp]" "48 8b 45 00"
    (Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RBP 0)) Arch.X64;
  check_bytes "lea rdi,[rip+0x100]" "48 8d 3d 00 01 00 00"
    (Insn.Lea (Reg.RDI, Insn.mem_abs 0x100)) Arch.X64;
  check_bytes "mov eax,[table+eax*4]" "8b 04 85 00 00 40 00"
    (Insn.Mov_rm
       (Reg.RAX, { Insn.base = None; index = Some (Reg.RAX, 4); disp = 0x400000 }))
    Arch.X86

let test_encode_indirect () =
  check_bytes "call rax" "ff d0" (Insn.Call_reg Reg.RAX) Arch.X64;
  check_bytes "jmp rax" "ff e0" (Insn.Jmp_reg { reg = Reg.RAX; notrack = false }) Arch.X64;
  check_bytes "notrack jmp rax" "3e ff e0"
    (Insn.Jmp_reg { reg = Reg.RAX; notrack = true }) Arch.X64;
  check_bytes "notrack jmp [tbl+eax*4]" "3e ff 24 85 00 40 80 00"
    (Insn.Jmp_mem
       { mem = { base = None; index = Some (Reg.RAX, 4); disp = 0x804000 }; notrack = true })
    Arch.X86

let test_encode_wave2 () =
  check_bytes "and ecx, 15" "83 e1 0f" (Insn.And_ri (Reg.RCX, 15)) Arch.X86;
  check_bytes "or rax, rdx" "48 09 d0" (Insn.Or_rr (Reg.RAX, Reg.RDX)) Arch.X64;
  check_bytes "inc eax (x86)" "40" (Insn.Inc Reg.RAX) Arch.X86;
  check_bytes "inc rax (x64)" "48 ff c0" (Insn.Inc Reg.RAX) Arch.X64;
  check_bytes "dec ecx (x86)" "49" (Insn.Dec Reg.RCX) Arch.X86;
  check_bytes "neg rax" "48 f7 d8" (Insn.Neg Reg.RAX) Arch.X64;
  check_bytes "not edx" "f7 d2" (Insn.Not Reg.RDX) Arch.X86;
  check_bytes "shl rax, 4" "48 c1 e0 04" (Insn.Shl_ri (Reg.RAX, 4)) Arch.X64;
  check_bytes "sar edx, 2" "c1 fa 02" (Insn.Sar_ri (Reg.RDX, 2)) Arch.X86;
  check_bytes "imul rax, rcx" "48 0f af c1" (Insn.Imul_rr (Reg.RAX, Reg.RCX)) Arch.X64;
  check_bytes "movzx eax, cl" "0f b6 c1" (Insn.Movzx_b (Reg.RAX, Reg.RCX)) Arch.X86;
  check_bytes "sete al" "0f 94 c0" (Insn.Setcc (Insn.E, Reg.RAX)) Arch.X86;
  check_bytes "cmove rax, rcx" "48 0f 44 c1" (Insn.Cmov (Insn.E, Reg.RAX, Reg.RCX)) Arch.X64;
  check_bytes "cdq" "99" Insn.Cdq Arch.X86

let test_encode_nops () =
  check_bytes "nop" "90" Insn.Nop Arch.X64;
  check_bytes "nopl 3" "0f 1f 00" (Insn.Nopl 3) Arch.X64;
  check_bytes "nopw 9" "66 0f 1f 84 00 00 00 00 00" (Insn.Nopl 9) Arch.X64;
  check_bytes "int3" "cc" Insn.Int3 Arch.X86;
  check_bytes "hlt" "f4" Insn.Hlt Arch.X64;
  check_bytes "ud2" "0f 0b" Insn.Ud2 Arch.X86

let test_encode_rejects () =
  Alcotest.check_raises "r8 in x86"
    (Invalid_argument "Encoder: extended register in 32-bit mode") (fun () ->
      ignore (Enc.encode Arch.X86 (Insn.Push Reg.R8)));
  Alcotest.check_raises "rel8 overflow" (Invalid_argument "Encoder: jmp rel8 out of range")
    (fun () -> ignore (Enc.encode Arch.X64 (Insn.Jmp_rel8 1000)));
  Alcotest.check_raises "bad nop" (Invalid_argument "Encoder: Nopl length must be 2-9")
    (fun () -> ignore (Enc.encode Arch.X64 (Insn.Nopl 17)))

(* ------------------------------------------------------------------ *)
(* Decoder                                                            *)
(* ------------------------------------------------------------------ *)

let decode_one arch bytes =
  match Dec.decode arch bytes ~base:0x1000 ~off:0 with
  | Ok i -> i
  | Error m -> Alcotest.failf "decode error: %s" m

let test_decode_endbr () =
  let i = decode_one Arch.X64 "\xf3\x0f\x1e\xfa" in
  check Alcotest.bool "endbr64" true (i.kind = Dec.Endbr64);
  check Alcotest.int "len" 4 i.len;
  let i = decode_one Arch.X86 "\xf3\x0f\x1e\xfb" in
  check Alcotest.bool "endbr32" true (i.kind = Dec.Endbr32)

let test_decode_call_target () =
  (* call +0x10 at 0x1000: target = 0x1000 + 5 + 0x10 *)
  let i = decode_one Arch.X64 "\xe8\x10\x00\x00\x00" in
  check Alcotest.bool "call target" true (i.kind = Dec.Call_direct 0x1015)

let test_decode_jmp_backwards () =
  let i = decode_one Arch.X64 "\xe9\xfb\xff\xff\xff" in
  check Alcotest.bool "jmp target" true (i.kind = Dec.Jmp_direct 0x1000)

let test_decode_jcc8 () =
  let i = decode_one Arch.X86 "\x75\x10" in
  check Alcotest.bool "jne rel8" true (i.kind = Dec.Jcc_direct 0x1012)

let test_decode_notrack () =
  let i = decode_one Arch.X64 "\x3e\xff\xe0" in
  (match i.kind with
  | Dec.Jmp_indirect { notrack = true; _ } -> ()
  | k -> Alcotest.failf "expected notrack jmp, got %s" (Dec.kind_to_string k));
  let i = decode_one Arch.X64 "\xff\xe0" in
  match i.kind with
  | Dec.Jmp_indirect { notrack = false; _ } -> ()
  | k -> Alcotest.failf "expected jmp, got %s" (Dec.kind_to_string k)

let test_decode_plt_slot () =
  (* jmp [rip+0x2000] at 0x1000, len 6: slot = 0x1006 + 0x2000 *)
  let i = decode_one Arch.X64 "\xff\x25\x00\x20\x00\x00" in
  (match i.kind with
  | Dec.Jmp_indirect { goto = Some s; _ } -> check Alcotest.int "x64 slot" 0x3006 s
  | k -> Alcotest.failf "expected slot, got %s" (Dec.kind_to_string k));
  (* x86: absolute *)
  let i = decode_one Arch.X86 "\xff\x25\x00\x20\x00\x00" in
  match i.kind with
  | Dec.Jmp_indirect { goto = Some s; _ } -> check Alcotest.int "x86 slot" 0x2000 s
  | k -> Alcotest.failf "expected slot, got %s" (Dec.kind_to_string k)

let test_decode_lea_addr_ref () =
  (* lea rdi, [rip+0x100] at 0x1000, len 7 -> 0x1107 *)
  let i = decode_one Arch.X64 "\x48\x8d\x3d\x00\x01\x00\x00" in
  check Alcotest.bool "lea addr ref" true (i.kind = Dec.Addr_ref 0x1107);
  (* x86: mov eax, imm32 *)
  let i = decode_one Arch.X86 "\xb8\x00\x90\x04\x08" in
  check Alcotest.bool "mov addr ref" true (i.kind = Dec.Addr_ref 0x8049000);
  (* x86: push imm32 *)
  let i = decode_one Arch.X86 "\x68\x34\x12\x00\x00" in
  check Alcotest.bool "push addr ref" true (i.kind = Dec.Addr_ref 0x1234)

let test_decode_ret_halt () =
  check Alcotest.bool "ret" true ((decode_one Arch.X64 "\xc3").kind = Dec.Ret);
  check Alcotest.bool "ret imm" true ((decode_one Arch.X86 "\xc2\x08\x00").kind = Dec.Ret);
  check Alcotest.bool "hlt" true ((decode_one Arch.X64 "\xf4").kind = Dec.Halt)

let test_decode_errors () =
  (match Dec.decode Arch.X64 "\x0f\xff" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for bad two-byte opcode");
  (match Dec.decode Arch.X64 "\x60" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pusha invalid in 64-bit");
  (match Dec.decode Arch.X86 "\x60" ~base:0 ~off:0 with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "pusha valid in 32-bit: %s" m);
  (match Dec.decode Arch.X64 "\xe8\x00" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated call must fail");
  match Dec.decode Arch.X64 "" ~base:0 ~off:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input must fail"

let test_decode_x86_legacy_ops () =
  (* inc eax (0x40) is a legacy opcode on x86 but a REX prefix on x86-64. *)
  let i = decode_one Arch.X86 "\x40" in
  check Alcotest.int "inc len" 1 i.len;
  (* REX.W + mov *)
  let i = decode_one Arch.X64 "\x48\x89\xe5" in
  check Alcotest.int "rex mov len" 3 i.len

(* ------------------------------------------------------------------ *)
(* Roundtrip property                                                 *)
(* ------------------------------------------------------------------ *)

let gen_reg ~arch =
  let open QCheck.Gen in
  let bound = match arch with Arch.X86 -> 8 | Arch.X64 -> 16 in
  map (fun i -> Reg.of_index i) (int_bound (bound - 1))

let gen_mem ~arch =
  let open QCheck.Gen in
  let base_reg = map Option.some (gen_reg ~arch) in
  let disp = int_range (-1024) 1024 in
  let index =
    oneof
      [
        return None;
        map2
          (fun r s -> Some (r, s))
          (map
             (fun i ->
               (* rsp cannot index *)
               let r = Reg.of_index i in
               if r = Reg.RSP then Reg.RAX else r)
             (int_bound (match arch with Arch.X86 -> 7 | Arch.X64 -> 15)))
          (oneofl [ 1; 2; 4; 8 ]);
      ]
  in
  oneof
    [
      map (fun d -> Insn.mem_abs d) disp;
      map2 (fun b d -> { Insn.base = b; index = None; disp = d }) base_reg disp;
      map3 (fun b i d -> { Insn.base = b; index = i; disp = d }) base_reg index disp;
    ]

let gen_insn ~arch =
  let open QCheck.Gen in
  let reg = gen_reg ~arch and mem = gen_mem ~arch in
  let imm = int_range (-100000) 100000 in
  let imm8 = int_range (-128) 127 in
  let cond = oneofl [ Insn.E; Insn.NE; Insn.L; Insn.G; Insn.A; Insn.B; Insn.S ] in
  oneof
    [
      return Insn.Endbr;
      map (fun d -> Insn.Call_rel d) imm;
      map (fun d -> Insn.Jmp_rel d) imm;
      map (fun d -> Insn.Jmp_rel8 d) imm8;
      map2 (fun c d -> Insn.Jcc_rel (c, d)) cond imm;
      map2 (fun c d -> Insn.Jcc_rel8 (c, d)) cond imm8;
      map (fun r -> Insn.Call_reg r) reg;
      map (fun m -> Insn.Call_mem m) mem;
      map2 (fun r n -> Insn.Jmp_reg { reg = r; notrack = n }) reg bool;
      map2 (fun m n -> Insn.Jmp_mem { mem = m; notrack = n }) mem bool;
      return Insn.Ret;
      map (fun n -> Insn.Ret_imm (abs n land 0xffff)) imm;
      map (fun r -> Insn.Push r) reg;
      map (fun r -> Insn.Pop r) reg;
      map (fun i -> Insn.Push_imm i) imm;
      map2 (fun a b -> Insn.Mov_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.Mov_ri (r, abs i)) reg imm;
      map2 (fun r m -> Insn.Mov_rm (r, m)) reg mem;
      map2 (fun m r -> Insn.Mov_mr (m, r)) mem reg;
      map2 (fun m i -> Insn.Mov_mi (m, i)) mem imm;
      map2 (fun r m -> Insn.Lea (r, m)) reg mem;
      map2 (fun r i -> Insn.Add_ri (r, i)) reg imm;
      map2 (fun r i -> Insn.Sub_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.Add_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Sub_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.Cmp_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.Cmp_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Test_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Xor_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.And_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.And_rr (a, b)) reg reg;
      map2 (fun r i -> Insn.Or_ri (r, i)) reg imm;
      map2 (fun a b -> Insn.Or_rr (a, b)) reg reg;
      map (fun r -> Insn.Inc r) reg;
      map (fun r -> Insn.Dec r) reg;
      map (fun r -> Insn.Neg r) reg;
      map (fun r -> Insn.Not r) reg;
      map2 (fun r n -> Insn.Shl_ri (r, 1 + (abs n mod 31))) reg imm;
      map2 (fun r n -> Insn.Shr_ri (r, 1 + (abs n mod 31))) reg imm;
      map2 (fun r n -> Insn.Sar_ri (r, 1 + (abs n mod 31))) reg imm;
      map2 (fun a b -> Insn.Imul_rr (a, b)) reg reg;
      map2 (fun a b -> Insn.Movzx_b (a, b)) reg reg;
      map2 (fun a b -> Insn.Movsx_b (a, b)) reg reg;
      map2 (fun c r -> Insn.Setcc (c, r)) cond reg;
      map3 (fun c a b -> Insn.Cmov (c, a, b)) cond reg reg;
      return Insn.Cdq;
      return Insn.Leave;
      return Insn.Nop;
      map (fun n -> Insn.Nopl (2 + (abs n mod 8))) imm;
      return Insn.Int3;
      return Insn.Hlt;
      return Insn.Ud2;
    ]

let expected_kind arch insn : Dec.kind option =
  (* The kind the decoder must report for an instruction encoded at
     [base=0x4000]; None = any non-branch classification acceptable. *)
  let base = 0x4000 in
  let len = String.length (Enc.encode arch insn) in
  match insn with
  | Insn.Endbr -> Some (match arch with Arch.X64 -> Dec.Endbr64 | Arch.X86 -> Dec.Endbr32)
  | Insn.Call_rel d -> Some (Dec.Call_direct (base + len + d))
  | Insn.Jmp_rel d | Insn.Jmp_rel8 d -> Some (Dec.Jmp_direct (base + len + d))
  | Insn.Jcc_rel (_, d) | Insn.Jcc_rel8 (_, d) -> Some (Dec.Jcc_direct (base + len + d))
  | Insn.Ret | Insn.Ret_imm _ -> Some Dec.Ret
  | Insn.Hlt -> Some Dec.Halt
  | _ -> None

let roundtrip_prop arch insn =
  let bytes = Enc.encode arch insn in
  match Dec.decode arch bytes ~base:0x4000 ~off:0 with
  | Error m ->
    QCheck.Test.fail_reportf "decode failed on %s: %s" (Cet_util.Hexdump.bytes_inline bytes) m
  | Ok i ->
    if i.len <> String.length bytes then
      QCheck.Test.fail_reportf "length mismatch on %s: %d vs %d"
        (Cet_util.Hexdump.bytes_inline bytes) i.len (String.length bytes)
    else (
      match expected_kind arch insn with
      | Some k when k <> i.kind ->
        QCheck.Test.fail_reportf "kind mismatch on %s: got %s"
          (Cet_util.Hexdump.bytes_inline bytes) (Dec.kind_to_string i.kind)
      | _ -> true)

let qcheck_roundtrip_x64 =
  QCheck.Test.make ~name:"encode/decode roundtrip (x86-64)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X64))
    (roundtrip_prop Arch.X64)

let qcheck_roundtrip_x86 =
  QCheck.Test.make ~name:"encode/decode roundtrip (x86)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X86))
    (roundtrip_prop Arch.X86)

let exact_roundtrip_prop arch insn =
  let bytes = Enc.encode arch insn in
  match Cet_x86.Exact.decode arch bytes ~off:0 with
  | None ->
    QCheck.Test.fail_reportf "exact decode fell out of subset on %s"
      (Cet_util.Hexdump.bytes_inline bytes)
  | Some (decoded, len) ->
    if len <> String.length bytes then
      QCheck.Test.fail_reportf "exact length mismatch on %s"
        (Cet_util.Hexdump.bytes_inline bytes)
    else if decoded <> insn then
      QCheck.Test.fail_reportf "exact AST mismatch on %s: %s vs %s"
        (Cet_util.Hexdump.bytes_inline bytes)
        (Format.asprintf "%a" (Insn.pp ~arch) decoded)
        (Format.asprintf "%a" (Insn.pp ~arch) insn)
    else true

let qcheck_exact_x64 =
  QCheck.Test.make ~name:"exact decode inverts encode (x86-64)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X64))
    (exact_roundtrip_prop Arch.X64)

let qcheck_exact_x86 =
  QCheck.Test.make ~name:"exact decode inverts encode (x86)" ~count:2000
    (QCheck.make (gen_insn ~arch:Arch.X86))
    (exact_roundtrip_prop Arch.X86)

let test_exact_disassemble_text () =
  let blob =
    String.concat ""
      [
        Enc.encode Arch.X64 Insn.Endbr;
        Enc.encode Arch.X64 (Insn.Push Reg.RBP);
        Enc.encode Arch.X64 (Insn.Mov_rr (Reg.RBP, Reg.RSP));
        Enc.encode Arch.X64 (Insn.Call_rel 0x10);
        Enc.encode Arch.X64 Insn.Ret;
      ]
  in
  let listing = Cet_x86.Exact.disassemble_all Arch.X64 blob ~base:0x1000 in
  check Alcotest.int "count" 5 (List.length listing);
  check Alcotest.string "endbr" "endbr64" (List.assoc 0x1000 listing);
  check Alcotest.string "push" "push rbp" (List.assoc 0x1004 listing);
  check Alcotest.string "mov" "mov rbp, rsp" (List.assoc 0x1005 listing);
  check Alcotest.string "ret" "ret" (List.assoc 0x100d listing)

let test_exact_fallback () =
  (* cpuid (0F A2) is outside the exact subset but inside the coarse
     decoder: the listing falls back rather than failing. *)
  match Cet_x86.Exact.disassemble Arch.X64 "\x0f\xa2" ~base:0 ~off:0 with
  | Ok (text, 2) -> check Alcotest.string "fallback" "other" text
  | Ok (_, n) -> Alcotest.failf "bad length %d" n
  | Error e -> Alcotest.failf "unexpected error %s" e

let test_exact_full_coverage_of_compiled_binary () =
  (* The exact decoder must reconstruct EVERY instruction of a compiled
     binary — compilers emit nothing outside the modelled subset. *)
  let profile =
    { Cet_corpus.Profile.coreutils with Cet_corpus.Profile.programs = 1; funcs_lo = 40; funcs_hi = 60 }
  in
  let ir = Cet_corpus.Generator.program ~seed:13 ~profile ~index:0 in
  List.iter
    (fun (opts : Cet_compiler.Options.t) ->
      let res = Cet_compiler.Link.link opts ir in
      let reader = Cet_elf.Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
      let text = Option.get (Cet_elf.Reader.find_section reader ".text") in
      let arch = Cet_elf.Reader.arch reader in
      let off = ref 0 in
      while !off < String.length text.data do
        match Cet_x86.Exact.decode arch text.data ~off:!off with
        | Some (_, len) -> off := !off + len
        | None ->
          Alcotest.failf "%s: exact decode failed at +0x%x"
            (Cet_compiler.Options.to_string opts) !off
      done)
    [
      Cet_compiler.Options.default;
      { Cet_compiler.Options.default with
        arch = Arch.X86; pie = false; opt = Cet_compiler.Options.O0 };
      { Cet_compiler.Options.default with
        compiler = Cet_compiler.Options.Clang; arch = Arch.X86;
        opt = Cet_compiler.Options.Os };
    ]

let qcheck_stream_roundtrip =
  (* A whole stream of instructions decodes back with the same boundaries. *)
  QCheck.Test.make ~name:"instruction stream boundaries" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) (gen_insn ~arch:Arch.X64)))
    (fun insns ->
      let encoded = List.map (Enc.encode Arch.X64) insns in
      let blob = String.concat "" encoded in
      let rec walk off = function
        | [] -> off = String.length blob
        | e :: rest -> (
          match Dec.decode Arch.X64 blob ~base:0 ~off with
          | Error _ -> false
          | Ok i -> i.len = String.length e && walk (off + i.len) rest)
      in
      walk 0 encoded)

(* ------------------------------------------------------------------ *)
(* Assembler                                                          *)
(* ------------------------------------------------------------------ *)

let no_extern l = invalid_arg ("unexpected extern " ^ l)

let test_asm_forward_backward () =
  let items =
    [
      Items.Label "a";
      Items.Ins Insn.Nop;
      Items.Jmp_lbl "b";
      Items.Label "b";
      Items.Jmp_lbl "a";
    ]
  in
  let bytes = Items.assemble ~arch:Arch.X64 ~base:0x1000 ~resolve:no_extern items in
  (* nop(1) + jmp(5) + jmp(5) *)
  check Alcotest.int "size" 11 (String.length bytes);
  (* forward jmp to b: rel = 0 *)
  check Alcotest.string "forward" "e9 00 00 00 00" (hex (String.sub bytes 1 5));
  (* backward jmp to a: target 0x1000, insn at 0x1006 len 5 -> rel = -11 *)
  check Alcotest.string "backward" "e9 f5 ff ff ff" (hex (String.sub bytes 6 5))

let test_asm_layout_matches () =
  let items =
    [
      Items.Align 16;
      Items.Label "f";
      Items.Ins Insn.Endbr;
      Items.Call_lbl "g";
      Items.Align 16;
      Items.Label "g";
      Items.Ins Insn.Ret;
      Items.Label "end";
    ]
  in
  let size, labels = Items.layout ~arch:Arch.X64 ~base:0x2000 items in
  let bytes = Items.assemble ~arch:Arch.X64 ~base:0x2000 ~resolve:no_extern items in
  check Alcotest.int "measured size" (String.length bytes) size;
  check Alcotest.int "g aligned" 0 (Hashtbl.find labels "g" mod 16);
  check Alcotest.int "end" (0x2000 + size) (Hashtbl.find labels "end")

let test_asm_extern_resolution () =
  let items = [ Items.Label "f"; Items.Call_lbl "printf@plt" ] in
  let bytes =
    Items.assemble ~arch:Arch.X64 ~base:0x1000
      ~resolve:(fun l ->
        check Alcotest.string "extern name" "printf@plt" l;
        0x500)
      items
  in
  (* call at 0x1000, len 5, target 0x500 -> rel = 0x500 - 0x1005 *)
  check Alcotest.string "extern call" "e8 fb f4 ff ff" (hex bytes)

let test_asm_lea_lbl_by_arch () =
  let items = [ Items.Label "f"; Items.Lea_lbl (Reg.RDI, "g") ] in
  let x64 = Items.assemble ~arch:Arch.X64 ~base:0x1000 ~resolve:(fun _ -> 0x3000) items in
  (* lea rdi,[rip+d], len 7: d = 0x3000 - 0x1007 = 0x1ff9 *)
  check Alcotest.string "x64 lea" "48 8d 3d f9 1f 00 00" (hex x64);
  let x86 = Items.assemble ~arch:Arch.X86 ~base:0x1000 ~resolve:(fun _ -> 0x3000) items in
  check Alcotest.string "x86 mov" "bf 00 30 00 00" (hex x86)

let test_asm_nop_fill_decodes () =
  (* Alignment padding must be decodable NOPs of exactly the gap size. *)
  let items =
    [ Items.Ins Insn.Ret; Items.Align 16; Items.Label "f" ]
  in
  let bytes = Items.assemble ~arch:Arch.X64 ~base:0 ~resolve:no_extern items in
  check Alcotest.int "padded to 16" 16 (String.length bytes);
  let off = ref 1 in
  while !off < 16 do
    match Dec.decode Arch.X64 bytes ~base:0 ~off:!off with
    | Ok i -> off := !off + i.len
    | Error m -> Alcotest.failf "pad byte not decodable at %d: %s" !off m
  done

let test_asm_jmp_table_item () =
  let items =
    [
      Items.Label "f";
      Items.Jmp_table_lbl { table = "jt"; index = Reg.RAX; scale = 4; notrack = true };
    ]
  in
  let bytes = Items.assemble ~arch:Arch.X86 ~base:0 ~resolve:(fun _ -> 0x804000) items in
  check Alcotest.string "notrack jmp table" "3e ff 24 85 00 40 80 00" (hex bytes)

(* ------------------------------------------------------------------ *)
(* Operand ranges: nothing is truncated silently                      *)
(* ------------------------------------------------------------------ *)

let rejects name msg insn =
  Alcotest.check_raises name (Invalid_argument msg) (fun () ->
      ignore (Enc.encode Arch.X64 insn))

let imm32_range = "Encoder: 32-bit immediate or displacement out of range"

let test_range_rel32 () =
  rejects "call +2^33" "Encoder: rel32 out of range" (Insn.Call_rel (1 lsl 33));
  rejects "jmp +2^31" "Encoder: rel32 out of range" (Insn.Jmp_rel 0x8000_0000);
  check_bytes "jcc -2^31" "0f 84 00 00 00 80" (Insn.Jcc_rel (Insn.E, -0x8000_0000)) Arch.X64

let test_range_ret_imm () =
  rejects "ret 0x10008" "Encoder: ret imm16 out of range" (Insn.Ret_imm 0x10008);
  rejects "ret -1" "Encoder: ret imm16 out of range" (Insn.Ret_imm (-1));
  check_bytes "ret 0xffff" "c2 ff ff" (Insn.Ret_imm 0xffff) Arch.X64

let test_range_alu_imm () =
  rejects "add rax, 2^32+5" imm32_range (Insn.Add_ri (Reg.RAX, (1 lsl 32) + 5));
  rejects "cmp rax, -2^31-1" imm32_range (Insn.Cmp_ri (Reg.RAX, -0x8000_0001));
  rejects "disp32 2^32" imm32_range (Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RBX (1 lsl 32)));
  check_bytes "and eax, 0xffffffff" "81 e0 ff ff ff ff" (Insn.And_ri (Reg.RAX, 0xffff_ffff)) Arch.X86

let test_range_mov_imm () =
  rejects "mov rax, 2^35" imm32_range (Insn.Mov_ri (Reg.RAX, 1 lsl 35));
  rejects "push 2^32" imm32_range (Insn.Push_imm (1 lsl 32));
  check_bytes "mov eax, 0xffffffff" "b8 ff ff ff ff" (Insn.Mov_ri (Reg.RAX, 0xffff_ffff)) Arch.X64

let test_range_abs32_patch () =
  let items = [ Items.Lea_lbl (Reg.RAX, "far") ] in
  Alcotest.check_raises "abs32 2^32" (Invalid_argument "Asm: abs32 out of range") (fun () ->
      ignore (Items.assemble ~arch:Arch.X86 ~base:0x1000 ~resolve:(fun _ -> 1 lsl 32) items));
  check Alcotest.string "abs32 0xffffffff" "b8 ff ff ff ff"
    (hex (Items.assemble ~arch:Arch.X86 ~base:0x1000 ~resolve:(fun _ -> 0xffff_ffff) items))

let test_encode_into_failure_keeps_sink () =
  let s = Enc.Sink.create 4 in
  Enc.encode_into s Arch.X86 Insn.Ret;
  (try Enc.encode_into s Arch.X86 (Insn.Jmp_reg { reg = Reg.R8; notrack = true })
   with Invalid_argument _ -> ());
  check Alcotest.string "only the ret" "c3" (hex (Enc.Sink.contents s))

(* ------------------------------------------------------------------ *)
(* Differential oracles: the retired encoder and two-pass assembler   *)
(* ------------------------------------------------------------------ *)

let qcheck_encode_oracle arch =
  QCheck.Test.make
    ~name:(Printf.sprintf "encode = oracle encode (%s)" (Arch.to_string arch))
    ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" (Insn.pp ~arch)) (gen_insn ~arch))
    (fun insn -> Enc.encode arch insn = Oracle_asm.encode arch insn)

(* Local labels come from a small pool, so lists use them before and after
   their definitions and define some twice; [ext*] are never defined and
   go through [resolve]. *)
let local_labels = [| "a"; "b"; "c"; "d"; "e" |]
let resolve_ext base l = base + 0x10000 + (16 * (Hashtbl.hash l land 0xff))

let gen_items ~arch =
  let open QCheck.Gen in
  let sym = oneof [ oneofa local_labels; oneofl [ "ext0"; "ext1"; "ext2" ] ] in
  let reg = gen_reg ~arch in
  let index = map (fun r -> if r = Reg.RSP then Reg.RAX else r) reg in
  let scale = oneofl [ 1; 2; 4; 8 ] in
  let cond = oneofl [ Insn.E; Insn.NE; Insn.L; Insn.G; Insn.A; Insn.B; Insn.S ] in
  let item =
    frequency
      [
        (4, map (fun l -> Items.Label l) (oneofa local_labels));
        (6, map (fun i -> Items.Ins i) (gen_insn ~arch));
        (2, map (fun l -> Items.Call_lbl l) sym);
        (2, map (fun l -> Items.Jmp_lbl l) sym);
        (2, map2 (fun c l -> Items.Jcc_lbl (c, l)) cond sym);
        (1, map2 (fun r l -> Items.Lea_lbl (r, l)) reg sym);
        (1, map (fun l -> Items.Push_lbl l) sym);
        (1, map2 (fun m l -> Items.Mov_mi_lbl (m, l)) (gen_mem ~arch) sym);
        ( 1,
          map4
            (fun table index scale notrack -> Items.Jmp_table_lbl { table; index; scale; notrack })
            sym index scale bool );
        ( 1,
          map2
            (fun entries entry_size -> Items.Table { entries; entry_size })
            (list_size (int_bound 3) sym) (oneofl [ 4; 8 ]) );
        (2, map (fun boundary -> Items.Align boundary) (int_range 1 64));
      ]
  in
  map2
    (fun base items ->
      (* "a" is used before its first definition and defined again last. *)
      (base, (Items.Call_lbl "a" :: items) @ [ Items.Label "a"; Items.Jmp_lbl "a" ]))
    (int_range 0x1000 0x1000_0000) (list_size (int_range 0 60) item)

let print_items (base, items) =
  Printf.sprintf "base 0x%x, %d items" base (List.length items)

let qcheck_asm_oracle arch =
  QCheck.Test.make
    ~name:(Printf.sprintf "layout/assemble = two-pass oracle (%s)" (Arch.to_string arch))
    ~count:500
    (QCheck.make ~print:print_items (gen_items ~arch))
    (fun (base, items) ->
      let resolve = resolve_ext base in
      let want_size, want_labels = Oracle_asm.measure ~arch ~base items in
      let want = Hashtbl.create 8 in
      List.iter (fun (l, a) -> Hashtbl.replace want l a) want_labels;
      let size, got = Items.layout ~arch ~base items in
      size = want_size
      && Hashtbl.length got = Hashtbl.length want
      && Hashtbl.fold (fun l a ok -> ok && Hashtbl.find_opt got l = Some a) want true
      && Items.assemble ~arch ~base ~resolve items
         = Oracle_asm.assemble ~arch ~base ~resolve items)

(* Code placed later: the second half of a list (without its alignments,
   which a side buffer cannot take) goes through a side buffer and is
   appended, its label definitions and relocations rebased; the bytes are
   those of emitting every item in place. *)
let qcheck_side_buffer arch =
  QCheck.Test.make
    ~name:(Printf.sprintf "side buffer + append = in place (%s)" (Arch.to_string arch))
    ~count:300
    (QCheck.make ~print:print_items (gen_items ~arch))
    (fun (base, items) ->
      let side = List.length items / 2 in
      let placeable k = function Items.Align _ -> k < side | _ -> true in
      let items = List.filteri placeable items in
      let resolve = resolve_ext base in
      Items.assemble ~side ~arch ~base ~resolve items = Items.assemble ~arch ~base ~resolve items)

let raised f = match f () with _ -> None | exception e -> Some e

let test_asm_errors_match_oracle () =
  let same name ~arch ~base ~resolve items =
    let got = raised (fun () -> Items.assemble ~arch ~base ~resolve items) in
    let want = raised (fun () -> Oracle_asm.assemble ~arch ~base ~resolve items) in
    check Alcotest.bool (name ^ " raises") true (want <> None);
    check Alcotest.bool (name ^ " raises what the oracle raises") true (got = want)
  in
  (* call at 0x1000 ends at 0x1005: 2^31 past it no longer fits a rel32 *)
  same "forward rel32 overflow" ~arch:Arch.X64 ~base:0x1000
    ~resolve:(fun _ -> 0x1005 + 0x8000_0000)
    [ Items.Call_lbl "far" ];
  same "backward rel32 overflow" ~arch:Arch.X64 ~base:0x1_0000_0000
    ~resolve:(fun _ -> 0)
    [ Items.Jmp_lbl "low" ];
  same "unknown label" ~arch:Arch.X86 ~base:0x1000 ~resolve:no_extern
    [ Items.Label "here"; Items.Jmp_lbl "here"; Items.Jcc_lbl (Insn.E, "nowhere") ]

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                 *)
(* ------------------------------------------------------------------ *)

let test_encode_into_allocation () =
  List.iter
    (fun arch ->
      let insns =
        Array.of_list
          (QCheck.Gen.generate ~rand:(Random.State.make [| 2022 |]) ~n:2000 (gen_insn ~arch))
      in
      let s = Enc.Sink.create (16 * Array.length insns) in
      let before = Gc.minor_words () in
      for i = 0 to Array.length insns - 1 do
        Enc.encode_into s arch insns.(i)
      done;
      let words = Gc.minor_words () -. before in
      if words > 0. then
        Alcotest.failf "encode_into (%s) allocates %.3f minor words per instruction (budget 0)"
          (Arch.to_string arch)
          (words /. float_of_int (Array.length insns)))
    [ Arch.X64; Arch.X86 ]

(* A link from a prepared program, the work every configuration repeats,
   allocates per emitted instruction the operands of the non-filler
   [Insn.t]s and little else: lowering encodes straight into .text,
   filler is copied from a table, labels are ints, and the EH, DWARF and
   symbol tables are per fragment.  Measured 3.5 minor words per
   instruction on both configurations.  The whole link from IR adds the
   program's preparation (validation and the label tables, once for all
   its configurations): 5.9.  Lowering into item lists and laying them
   out took 23.3; lowering an [Insn.t] per filler instruction and
   validating in every link, 6.7. *)
let test_link_allocation () =
  let profile =
    { Cet_corpus.Profile.spec with Cet_corpus.Profile.programs = 1; funcs_lo = 200; funcs_hi = 200 }
  in
  let ir = Cet_corpus.Generator.program ~seed:7 ~profile ~index:0 in
  let pp = Cet_compiler.Codegen.prepare ir in
  List.iter
    (fun (opts : Cet_compiler.Options.t) ->
      let words link =
        let before = Gc.minor_words () in
        let res = link () in
        (res, Gc.minor_words () -. before)
      in
      let res, prepared = words (fun () -> Cet_compiler.Link.link_prepared opts pp) in
      let _, whole = words (fun () -> Cet_compiler.Link.link opts ir) in
      let text = Option.get (Cet_elf.Image.find_section res.image ".text") in
      let swept = Cet_disasm.Linear.sweep opts.arch ~base:text.vaddr text.data in
      let per_insn w = w /. float_of_int (Cet_disasm.Linear.length swept) in
      if per_insn prepared > 5.0 then
        Alcotest.failf "%s: Link.link_prepared allocates %.2f minor words per instruction (budget 5)"
          (Cet_compiler.Options.to_string opts) (per_insn prepared);
      if per_insn whole > 8.0 then
        Alcotest.failf "%s: Link.link allocates %.2f minor words per instruction (budget 8)"
          (Cet_compiler.Options.to_string opts) (per_insn whole))
    [
      Cet_compiler.Options.default;
      { Cet_compiler.Options.default with arch = Arch.X86; pie = false };
    ]

let suite =
  [
    ( "x86.register",
      [
        Alcotest.test_case "index roundtrip" `Quick test_register_roundtrip;
        Alcotest.test_case "names" `Quick test_register_names;
      ] );
    ( "x86.encoder",
      [
        Alcotest.test_case "endbr" `Quick test_encode_endbr;
        Alcotest.test_case "branches" `Quick test_encode_branches;
        Alcotest.test_case "ret/stack" `Quick test_encode_ret_stack;
        Alcotest.test_case "mov/alu" `Quick test_encode_mov_alu;
        Alcotest.test_case "memory forms" `Quick test_encode_mem_forms;
        Alcotest.test_case "indirect + notrack" `Quick test_encode_indirect;
        Alcotest.test_case "wave-2 alu/flags" `Quick test_encode_wave2;
        Alcotest.test_case "nops" `Quick test_encode_nops;
        Alcotest.test_case "invalid forms rejected" `Quick test_encode_rejects;
        Alcotest.test_case "rel32 out of range" `Quick test_range_rel32;
        Alcotest.test_case "ret imm16 out of range" `Quick test_range_ret_imm;
        Alcotest.test_case "alu imm32/disp32 out of range" `Quick test_range_alu_imm;
        Alcotest.test_case "mov/push imm32 out of range" `Quick test_range_mov_imm;
        Alcotest.test_case "failed encoding leaves the sink" `Quick
          test_encode_into_failure_keeps_sink;
        Alcotest.test_case "encode_into allocates nothing" `Quick test_encode_into_allocation;
        qcheck (qcheck_encode_oracle Arch.X64);
        qcheck (qcheck_encode_oracle Arch.X86);
      ] );
    ( "x86.decoder",
      [
        Alcotest.test_case "endbr" `Quick test_decode_endbr;
        Alcotest.test_case "call target" `Quick test_decode_call_target;
        Alcotest.test_case "jmp backwards" `Quick test_decode_jmp_backwards;
        Alcotest.test_case "jcc rel8" `Quick test_decode_jcc8;
        Alcotest.test_case "notrack prefix" `Quick test_decode_notrack;
        Alcotest.test_case "PLT slot resolution" `Quick test_decode_plt_slot;
        Alcotest.test_case "address materialisation" `Quick test_decode_lea_addr_ref;
        Alcotest.test_case "ret/hlt" `Quick test_decode_ret_halt;
        Alcotest.test_case "error cases" `Quick test_decode_errors;
        Alcotest.test_case "arch-specific opcodes" `Quick test_decode_x86_legacy_ops;
        qcheck qcheck_roundtrip_x64;
        qcheck qcheck_roundtrip_x86;
        qcheck qcheck_stream_roundtrip;
      ] );
    ( "x86.exact",
      [
        qcheck qcheck_exact_x64;
        qcheck qcheck_exact_x86;
        Alcotest.test_case "full coverage of compiled binaries" `Quick
          test_exact_full_coverage_of_compiled_binary;
        Alcotest.test_case "disassembly text" `Quick test_exact_disassemble_text;
        Alcotest.test_case "fallback" `Quick test_exact_fallback;
      ] );
    ( "x86.asm",
      [
        Alcotest.test_case "forward/backward labels" `Quick test_asm_forward_backward;
        Alcotest.test_case "layout = assemble" `Quick test_asm_layout_matches;
        Alcotest.test_case "extern resolution" `Quick test_asm_extern_resolution;
        Alcotest.test_case "lea label by arch" `Quick test_asm_lea_lbl_by_arch;
        Alcotest.test_case "nop fill decodes" `Quick test_asm_nop_fill_decodes;
        Alcotest.test_case "jump table item" `Quick test_asm_jmp_table_item;
        Alcotest.test_case "abs32 patch out of range" `Quick test_range_abs32_patch;
        Alcotest.test_case "errors = oracle errors" `Quick test_asm_errors_match_oracle;
        Alcotest.test_case "link allocation budget" `Quick test_link_allocation;
        qcheck (qcheck_asm_oracle Arch.X64);
        qcheck (qcheck_asm_oracle Arch.X86);
        qcheck (qcheck_side_buffer Arch.X64);
        qcheck (qcheck_side_buffer Arch.X86);
      ] );
  ]
