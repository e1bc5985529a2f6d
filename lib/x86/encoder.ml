(* The byte sink lives here rather than in [Cet_util.Bytesio]: the default
   profile compiles with -opaque, so a per-byte call into another module
   would not inline. *)
module Sink = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create (max n 16); len = 0 }
  let length s = s.len
  let contents s = Bytes.sub_string s.buf 0 s.len

  let reserve s n =
    let need = s.len + n in
    if need > Bytes.length s.buf then begin
      let buf = Bytes.create (max need (2 * Bytes.length s.buf)) in
      Bytes.blit s.buf 0 buf 0 s.len;
      s.buf <- buf
    end

  let add_string s str =
    let n = String.length str in
    reserve s n;
    Bytes.unsafe_blit_string str 0 s.buf s.len n;
    s.len <- s.len + n

  let add_fill s c n =
    reserve s n;
    Bytes.unsafe_fill s.buf s.len n c;
    s.len <- s.len + n

  let add_sink s src =
    reserve s src.len;
    Bytes.unsafe_blit src.buf 0 s.buf s.len src.len;
    s.len <- s.len + src.len

  let patch s ~at ~width v =
    if at < 0 || width < 0 || at + width > s.len then invalid_arg "Encoder.Sink.patch";
    for i = 0 to width - 1 do
      Bytes.unsafe_set s.buf (at + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done
end

(* No encoding is longer than this; [encode_into] reserves it up front so
   the byte writers below need no bounds checks. *)
let max_len = 16

let u8 (s : Sink.t) v =
  Bytes.unsafe_set s.buf s.len (Char.unsafe_chr (v land 0xff));
  s.len <- s.len + 1

let u32 s v =
  u8 s v;
  u8 s (v lsr 8);
  u8 s (v lsr 16);
  u8 s (v lsr 24)

let fits8 v = v >= -128 && v <= 127

(* A rel32 is sign-extended, so it must fit in [-2^31, 2^31); any other
   32-bit field may also hold an unsigned value. *)
let rel32 s v =
  if v < -0x8000_0000 || v > 0x7fff_ffff then invalid_arg "Encoder: rel32 out of range";
  u32 s v

let imm32 s v =
  if v < -0x8000_0000 || v > 0xffff_ffff then
    invalid_arg "Encoder: 32-bit immediate or displacement out of range";
  u32 s v

let reg = Register.index

(* Index of an optional register, -1 for none. *)
let opt_reg = function Some r -> reg r | None -> -1

(* REX prefix for x64: w = 64-bit operand, r = ModRM.reg extension,
   x = SIB.index extension, b = ModRM.rm / SIB.base extension. *)
let rex ~w ~r ~x ~b =
  0x40 lor ((if w then 8 else 0) lor (if r then 4 else 0) lor (if x then 2 else 0)
           lor if b then 1 else 0)

let check_x86_reg r = if r >= 8 then invalid_arg "Encoder: extended register in 32-bit mode"

(* Emit REX if needed (x64) for an instruction with operand-size [w],
   ModRM.reg register [reg] and rm/base register [rm] plus SIB index [idx],
   each a register index or -1. In x86 mode this rejects extended
   registers instead. *)
let emit_rex s arch ~w ~reg ~rm ~idx =
  match arch with
  | Arch.X86 ->
    check_x86_reg reg;
    check_x86_reg rm;
    check_x86_reg idx
  | Arch.X64 ->
    let r = reg >= 8 and b = rm >= 8 and x = idx >= 8 in
    if w || r || x || b then u8 s (rex ~w ~r ~x ~b)

let modrm_reg s ~ext ~rm = u8 s (0xC0 lor (ext lsl 3) lor (rm land 7))

(* ModRM + SIB + displacement for a memory operand.  [ext] is the ModRM.reg
   field (either a register index or an opcode extension). *)
let modrm_mem s (m : Insn.mem) ~ext =
  let ext = ext land 7 in
  match (m.base, m.index) with
  | None, None ->
    (* disp32: absolute on x86, RIP-relative on x64. *)
    u8 s ((ext lsl 3) lor 0x05);
    imm32 s m.disp
  | Some base, None ->
    let bi = reg base land 7 in
    let needs_sib = bi = 4 (* rsp/r12 *) in
    let force_disp = bi = 5 (* rbp/r13 need mod>=1 *) in
    let md = if m.disp = 0 && not force_disp then 0 else if fits8 m.disp then 1 else 2 in
    if needs_sib then begin
      u8 s ((md lsl 6) lor (ext lsl 3) lor 0x04);
      u8 s (0x24 lor bi) (* scale=1 index=100(none) base *)
    end
    else u8 s ((md lsl 6) lor (ext lsl 3) lor bi);
    if md = 1 then u8 s m.disp else if md = 2 then imm32 s m.disp
  | base, Some (index, scale) ->
    let ii = reg index in
    if ii = 4 then invalid_arg "Encoder: rsp cannot be an index register";
    let ss =
      match scale with
      | 1 -> 0
      | 2 -> 1
      | 4 -> 2
      | 8 -> 3
      | _ -> invalid_arg "Encoder: bad scale"
    in
    let ii = ii land 7 in
    (match base with
    | None ->
      (* mod=00, rm=100, SIB base=101: disp32 + scaled index. *)
      u8 s ((ext lsl 3) lor 0x04);
      u8 s ((ss lsl 6) lor (ii lsl 3) lor 0x05);
      imm32 s m.disp
    | Some b ->
      let bi = reg b land 7 in
      let force_disp = bi = 5 in
      let md = if m.disp = 0 && not force_disp then 0 else if fits8 m.disp then 1 else 2 in
      u8 s ((md lsl 6) lor (ext lsl 3) lor 0x04);
      u8 s ((ss lsl 6) lor (ii lsl 3) lor bi);
      if md = 1 then u8 s m.disp else if md = 2 then imm32 s m.disp)

(* opc /ext with a register rm operand. *)
let reg_op s arch ~w ~opc ~ext rm =
  emit_rex s arch ~w ~reg:(-1) ~rm ~idx:(-1);
  u8 s opc;
  modrm_reg s ~ext ~rm

(* opc r/m, r form: [a] is rm, [b] is reg. *)
let rr s arch ~opc a b =
  let a = reg a and b = reg b in
  emit_rex s arch ~w:(arch = Arch.X64) ~reg:b ~rm:a ~idx:(-1);
  u8 s opc;
  modrm_reg s ~ext:(b land 7) ~rm:a

(* 0F opc r, r/m form: [dst] is reg, [src] is rm. *)
let rr_0f s arch ~w ~opc dst src =
  let dst = reg dst and src = reg src in
  emit_rex s arch ~w ~reg:dst ~rm:src ~idx:(-1);
  u8 s 0x0F;
  u8 s opc;
  modrm_reg s ~ext:(dst land 7) ~rm:src

let mem_idx (m : Insn.mem) = match m.index with Some (r, _) -> reg r | None -> -1

let rm_mem s arch ~w ~opc r (m : Insn.mem) =
  let r = reg r in
  emit_rex s arch ~w ~reg:r ~rm:(opt_reg m.base) ~idx:(mem_idx m);
  u8 s opc;
  modrm_mem s m ~ext:r

let grp_mem s arch ~w ~opc ~ext (m : Insn.mem) =
  emit_rex s arch ~w ~reg:(-1) ~rm:(opt_reg m.base) ~idx:(mem_idx m);
  u8 s opc;
  modrm_mem s m ~ext

(* 83 /ext imm8 or 81 /ext imm32 *)
let alu_ri s arch ~ext r imm =
  let w = arch = Arch.X64 in
  if fits8 imm then begin
    reg_op s arch ~w ~opc:0x83 ~ext (reg r);
    u8 s imm
  end
  else begin
    reg_op s arch ~w ~opc:0x81 ~ext (reg r);
    imm32 s imm
  end

let shift s arch ~ext r n =
  if n < 1 || n > 63 then invalid_arg "Encoder: shift amount";
  reg_op s arch ~w:(arch = Arch.X64) ~opc:0xC1 ~ext (reg r);
  u8 s n

(* Canonical GAS multi-byte NOPs (2–9 bytes). *)
let nopl =
  [|
    "";
    "";
    "\x66\x90";
    "\x0f\x1f\x00";
    "\x0f\x1f\x40\x00";
    "\x0f\x1f\x44\x00\x00";
    "\x66\x0f\x1f\x44\x00\x00";
    "\x0f\x1f\x80\x00\x00\x00\x00";
    "\x0f\x1f\x84\x00\x00\x00\x00\x00";
    "\x66\x0f\x1f\x84\x00\x00\x00\x00\x00";
  |]

let emit s arch = function
  | Insn.Endbr ->
    u8 s 0xF3;
    u8 s 0x0F;
    u8 s 0x1E;
    u8 s (match arch with Arch.X64 -> 0xFA | Arch.X86 -> 0xFB)
  | Insn.Call_rel d ->
    u8 s 0xE8;
    rel32 s d
  | Insn.Jmp_rel d ->
    u8 s 0xE9;
    rel32 s d
  | Insn.Jmp_rel8 d ->
    if not (fits8 d) then invalid_arg "Encoder: jmp rel8 out of range";
    u8 s 0xEB;
    u8 s d
  | Insn.Jcc_rel (c, d) ->
    u8 s 0x0F;
    u8 s (0x80 lor Insn.cond_code c);
    rel32 s d
  | Insn.Jcc_rel8 (c, d) ->
    if not (fits8 d) then invalid_arg "Encoder: jcc rel8 out of range";
    u8 s (0x70 lor Insn.cond_code c);
    u8 s d
  | Insn.Call_reg r -> reg_op s arch ~w:false ~opc:0xFF ~ext:2 (reg r)
  | Insn.Call_mem m -> grp_mem s arch ~w:false ~opc:0xFF ~ext:2 m
  | Insn.Jmp_reg { reg = r; notrack } ->
    if notrack then u8 s 0x3E;
    reg_op s arch ~w:false ~opc:0xFF ~ext:4 (reg r)
  | Insn.Jmp_mem { mem; notrack } ->
    if notrack then u8 s 0x3E;
    grp_mem s arch ~w:false ~opc:0xFF ~ext:4 mem
  | Insn.Ret -> u8 s 0xC3
  | Insn.Ret_imm n ->
    if n < 0 || n > 0xffff then invalid_arg "Encoder: ret imm16 out of range";
    u8 s 0xC2;
    u8 s n;
    u8 s (n lsr 8)
  | Insn.Push r ->
    let r = reg r in
    emit_rex s arch ~w:false ~reg:(-1) ~rm:r ~idx:(-1);
    u8 s (0x50 lor (r land 7))
  | Insn.Pop r ->
    let r = reg r in
    emit_rex s arch ~w:false ~reg:(-1) ~rm:r ~idx:(-1);
    u8 s (0x58 lor (r land 7))
  | Insn.Push_imm n ->
    if fits8 n then begin
      u8 s 0x6A;
      u8 s n
    end
    else begin
      u8 s 0x68;
      imm32 s n
    end
  | Insn.Mov_rr (a, b) -> rr s arch ~opc:0x89 a b
  | Insn.Mov_ri (r, imm) ->
    (* B8+r imm32 (zero-extending on x64, enough for our addresses). *)
    let r = reg r in
    emit_rex s arch ~w:false ~reg:(-1) ~rm:r ~idx:(-1);
    u8 s (0xB8 lor (r land 7));
    imm32 s imm
  | Insn.Mov_rm (r, m) -> rm_mem s arch ~w:(arch = Arch.X64) ~opc:0x8B r m
  | Insn.Mov_mr (m, r) -> rm_mem s arch ~w:(arch = Arch.X64) ~opc:0x89 r m
  | Insn.Mov_mi (m, imm) ->
    grp_mem s arch ~w:(arch = Arch.X64) ~opc:0xC7 ~ext:0 m;
    imm32 s imm
  | Insn.Lea (r, m) -> rm_mem s arch ~w:(arch = Arch.X64) ~opc:0x8D r m
  | Insn.Add_ri (r, imm) -> alu_ri s arch ~ext:0 r imm
  | Insn.Sub_ri (r, imm) -> alu_ri s arch ~ext:5 r imm
  | Insn.Add_rr (a, b) -> rr s arch ~opc:0x01 a b
  | Insn.Sub_rr (a, b) -> rr s arch ~opc:0x29 a b
  | Insn.Cmp_ri (r, imm) -> alu_ri s arch ~ext:7 r imm
  | Insn.Cmp_rr (a, b) -> rr s arch ~opc:0x39 a b
  | Insn.Test_rr (a, b) -> rr s arch ~opc:0x85 a b
  | Insn.Xor_rr (a, b) -> rr s arch ~opc:0x31 a b
  | Insn.And_ri (r, imm) -> alu_ri s arch ~ext:4 r imm
  | Insn.And_rr (a, b) -> rr s arch ~opc:0x21 a b
  | Insn.Or_ri (r, imm) -> alu_ri s arch ~ext:1 r imm
  | Insn.Or_rr (a, b) -> rr s arch ~opc:0x09 a b
  | Insn.Inc r -> (
    match arch with
    | Arch.X86 ->
      let r = reg r in
      check_x86_reg r;
      u8 s (0x40 lor r)
    | Arch.X64 -> reg_op s arch ~w:true ~opc:0xFF ~ext:0 (reg r))
  | Insn.Dec r -> (
    match arch with
    | Arch.X86 ->
      let r = reg r in
      check_x86_reg r;
      u8 s (0x48 lor r)
    | Arch.X64 -> reg_op s arch ~w:true ~opc:0xFF ~ext:1 (reg r))
  | Insn.Neg r -> reg_op s arch ~w:(arch = Arch.X64) ~opc:0xF7 ~ext:3 (reg r)
  | Insn.Not r -> reg_op s arch ~w:(arch = Arch.X64) ~opc:0xF7 ~ext:2 (reg r)
  | Insn.Shl_ri (r, n) -> shift s arch ~ext:4 r n
  | Insn.Shr_ri (r, n) -> shift s arch ~ext:5 r n
  | Insn.Sar_ri (r, n) -> shift s arch ~ext:7 r n
  | Insn.Imul_rr (dst, src) -> rr_0f s arch ~w:(arch = Arch.X64) ~opc:0xAF dst src
  | Insn.Movzx_b (dst, src) -> rr_0f s arch ~w:(arch = Arch.X64) ~opc:0xB6 dst src
  | Insn.Movsx_b (dst, src) -> rr_0f s arch ~w:(arch = Arch.X64) ~opc:0xBE dst src
  | Insn.Setcc (c, r) ->
    let r = reg r in
    emit_rex s arch ~w:false ~reg:(-1) ~rm:r ~idx:(-1);
    u8 s 0x0F;
    u8 s (0x90 lor Insn.cond_code c);
    modrm_reg s ~ext:0 ~rm:r
  | Insn.Cmov (c, dst, src) -> rr_0f s arch ~w:(arch = Arch.X64) ~opc:(0x40 lor Insn.cond_code c) dst src
  | Insn.Cdq -> u8 s 0x99
  | Insn.Leave -> u8 s 0xC9
  | Insn.Nop -> u8 s 0x90
  | Insn.Nopl n ->
    if n < 2 || n > 9 then invalid_arg "Encoder: Nopl length must be 2-9";
    let str = nopl.(n) in
    Bytes.unsafe_blit_string str 0 s.buf s.len n;
    s.len <- s.len + n
  | Insn.Int3 -> u8 s 0xCC
  | Insn.Hlt -> u8 s 0xF4
  | Insn.Ud2 ->
    u8 s 0x0F;
    u8 s 0x0B

let encode_into s arch insn =
  Sink.reserve s max_len;
  let start = s.len in
  match emit s arch insn with
  | () -> ()
  | exception (Invalid_argument _ as e) ->
    s.len <- start;
    raise e

let encode arch insn =
  let s = Sink.create max_len in
  encode_into s arch insn;
  Sink.contents s
