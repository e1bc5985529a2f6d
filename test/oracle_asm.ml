(* The retired two-pass assembler and the string-per-instruction encoder
   under it, kept as differential-testing oracles for [Cet_x86.Encoder]
   and [Cet_x86.Asm], both over the item lists of [Items].  [measure]
   sizes every item by encoding it, and [assemble] measures again and
   then encodes every item a second time against the label table.  The
   encoder truncates out-of-range operands silently; the production one
   rejects them, so the two agree on in-range operands only.  Not used
   outside the tests. *)

module Arch = Cet_x86.Arch
module Insn = Cet_x86.Insn
module Register = Cet_x86.Register
module W = Cet_util.Bytesio.W
open Items

(* ---- The encoder --------------------------------------------------- *)

let fits8 v = v >= -128 && v <= 127

(* REX prefix for x64: w = 64-bit operand, r = ModRM.reg extension,
   x = SIB.index extension, b = ModRM.rm / SIB.base extension. *)
let rex ~w ~r ~x ~b =
  0x40 lor ((if w then 8 else 0) lor (if r then 4 else 0) lor (if x then 2 else 0)
           lor if b then 1 else 0)

let check_reg arch r =
  if arch = Arch.X86 && Register.needs_rex r then
    invalid_arg "Encoder: extended register in 32-bit mode"

(* Emit REX if needed (x64) for an instruction with operand-size [w],
   ModRM.reg register [reg] and rm/base register [rm_reg] plus optional SIB
   index. In x86 mode this asserts no extended registers are used. *)
let emit_rex w' arch ~w ~reg ~rm ~idx =
  match arch with
  | Arch.X86 ->
    Option.iter (check_reg arch) reg;
    Option.iter (check_reg arch) rm;
    Option.iter (check_reg arch) idx
  | Arch.X64 ->
    let hi = function Some r -> Register.needs_rex r | None -> false in
    let r = hi reg and b = hi rm and x = hi idx in
    if w || r || x || b then W.u8 w' (rex ~w ~r ~x ~b)

(* ModRM + SIB + displacement for a register rm operand. *)
let modrm_reg w' ~ext ~rm = W.u8 w' (0xC0 lor (ext lsl 3) lor (Register.index rm land 7))

(* ModRM + SIB + displacement for a memory operand.  [ext] is the ModRM.reg
   field (either a register index or an opcode extension). *)
let modrm_mem w' (m : Insn.mem) ~ext =
  let ext = ext land 7 in
  match (m.base, m.index) with
  | None, None ->
    (* disp32: absolute on x86, RIP-relative on x64. *)
    W.u8 w' ((ext lsl 3) lor 0x05);
    W.i32 w' m.disp
  | Some base, None ->
    let bi = Register.index base land 7 in
    let needs_sib = bi = 4 (* rsp/r12 *) in
    let force_disp = bi = 5 (* rbp/r13 need mod>=1 *) in
    let emit_modrm md =
      if needs_sib then begin
        W.u8 w' ((md lsl 6) lor (ext lsl 3) lor 0x04);
        W.u8 w' (0x24 lor (bi land 7)) (* scale=1 index=100(none) base *)
      end
      else W.u8 w' ((md lsl 6) lor (ext lsl 3) lor bi)
    in
    if m.disp = 0 && not force_disp then emit_modrm 0
    else if fits8 m.disp then begin
      emit_modrm 1;
      W.i8 w' m.disp
    end
    else begin
      emit_modrm 2;
      W.i32 w' m.disp
    end
  | base, Some (index, scale) ->
    if Register.index index land 15 = 4 && not (Register.needs_rex index) then
      invalid_arg "Encoder: rsp cannot be an index register";
    let ss =
      match scale with
      | 1 -> 0
      | 2 -> 1
      | 4 -> 2
      | 8 -> 3
      | _ -> invalid_arg "Encoder: bad scale"
    in
    let ii = Register.index index land 7 in
    (match base with
    | None ->
      (* mod=00, rm=100, SIB base=101: disp32 + scaled index. *)
      W.u8 w' ((ext lsl 3) lor 0x04);
      W.u8 w' ((ss lsl 6) lor (ii lsl 3) lor 0x05);
      W.i32 w' m.disp
    | Some b ->
      let bi = Register.index b land 7 in
      let force_disp = bi = 5 in
      let emit md =
        W.u8 w' ((md lsl 6) lor (ext lsl 3) lor 0x04);
        W.u8 w' ((ss lsl 6) lor (ii lsl 3) lor bi)
      in
      if m.disp = 0 && not force_disp then emit 0
      else if fits8 m.disp then begin
        emit 1;
        W.i8 w' m.disp
      end
      else begin
        emit 2;
        W.i32 w' m.disp
      end)

let mem_regs (m : Insn.mem) = (m.base, Option.map fst m.index)

let encode arch insn =
  let w' = W.create ~size:16 () in
  let reg_op ~w ~opc ~ext rm =
    emit_rex w' arch ~w ~reg:None ~rm:(Some rm) ~idx:None;
    W.u8 w' opc;
    modrm_reg w' ~ext ~rm
  in
  let rr ~opc a b =
    (* opc r/m, r form: a is rm, b is reg *)
    emit_rex w' arch ~w:(arch = Arch.X64) ~reg:(Some b) ~rm:(Some a) ~idx:None;
    W.u8 w' opc;
    modrm_reg w' ~ext:(Register.index b land 7) ~rm:a
  in
  let rm_mem ~w ~opc reg m =
    let base, idx = mem_regs m in
    emit_rex w' arch ~w ~reg:(Some reg) ~rm:base ~idx;
    W.u8 w' opc;
    modrm_mem w' m ~ext:(Register.index reg land 7)
  in
  let grp_mem ~w ~opc ~ext m =
    let base, idx = mem_regs m in
    emit_rex w' arch ~w ~reg:None ~rm:base ~idx;
    W.u8 w' opc;
    modrm_mem w' m ~ext
  in
  let alu_ri ~ext r imm =
    (* 83 /ext imm8 or 81 /ext imm32 *)
    if fits8 imm then begin
      reg_op ~w:(arch = Arch.X64) ~opc:0x83 ~ext r;
      W.i8 w' imm
    end
    else begin
      reg_op ~w:(arch = Arch.X64) ~opc:0x81 ~ext r;
      W.i32 w' imm
    end
  in
  (match insn with
  | Insn.Endbr ->
    W.u8 w' 0xF3;
    W.u8 w' 0x0F;
    W.u8 w' 0x1E;
    W.u8 w' (match arch with Arch.X64 -> 0xFA | Arch.X86 -> 0xFB)
  | Insn.Call_rel d ->
    W.u8 w' 0xE8;
    W.i32 w' d
  | Insn.Jmp_rel d ->
    W.u8 w' 0xE9;
    W.i32 w' d
  | Insn.Jmp_rel8 d ->
    if not (fits8 d) then invalid_arg "Encoder: jmp rel8 out of range";
    W.u8 w' 0xEB;
    W.i8 w' d
  | Insn.Jcc_rel (c, d) ->
    W.u8 w' 0x0F;
    W.u8 w' (0x80 lor Insn.cond_code c);
    W.i32 w' d
  | Insn.Jcc_rel8 (c, d) ->
    if not (fits8 d) then invalid_arg "Encoder: jcc rel8 out of range";
    W.u8 w' (0x70 lor Insn.cond_code c);
    W.i8 w' d
  | Insn.Call_reg r -> reg_op ~w:false ~opc:0xFF ~ext:2 r
  | Insn.Call_mem m -> grp_mem ~w:false ~opc:0xFF ~ext:2 m
  | Insn.Jmp_reg { reg; notrack } ->
    if notrack then W.u8 w' 0x3E;
    reg_op ~w:false ~opc:0xFF ~ext:4 reg
  | Insn.Jmp_mem { mem; notrack } ->
    if notrack then W.u8 w' 0x3E;
    grp_mem ~w:false ~opc:0xFF ~ext:4 mem
  | Insn.Ret -> W.u8 w' 0xC3
  | Insn.Ret_imm n ->
    W.u8 w' 0xC2;
    W.u16 w' n
  | Insn.Push r ->
    emit_rex w' arch ~w:false ~reg:None ~rm:(Some r) ~idx:None;
    W.u8 w' (0x50 lor (Register.index r land 7))
  | Insn.Pop r ->
    emit_rex w' arch ~w:false ~reg:None ~rm:(Some r) ~idx:None;
    W.u8 w' (0x58 lor (Register.index r land 7))
  | Insn.Push_imm n ->
    if fits8 n then begin
      W.u8 w' 0x6A;
      W.i8 w' n
    end
    else begin
      W.u8 w' 0x68;
      W.i32 w' n
    end
  | Insn.Mov_rr (a, b) -> rr ~opc:0x89 a b
  | Insn.Mov_ri (r, imm) ->
    (* B8+r imm32 (zero-extending on x64, enough for our addresses). *)
    emit_rex w' arch ~w:false ~reg:None ~rm:(Some r) ~idx:None;
    W.u8 w' (0xB8 lor (Register.index r land 7));
    W.i32 w' imm
  | Insn.Mov_rm (r, m) -> rm_mem ~w:(arch = Arch.X64) ~opc:0x8B r m
  | Insn.Mov_mr (m, r) -> rm_mem ~w:(arch = Arch.X64) ~opc:0x89 r m
  | Insn.Mov_mi (m, imm) ->
    grp_mem ~w:(arch = Arch.X64) ~opc:0xC7 ~ext:0 m;
    W.i32 w' imm
  | Insn.Lea (r, m) ->
    if m.base = None && m.index = None && arch = Arch.X86 then begin
      (* lea r, [disp32] is legal but GCC uses mov r, imm32 instead; keep the
         lea form available for PIC sequences. *)
      rm_mem ~w:false ~opc:0x8D r m
    end
    else rm_mem ~w:(arch = Arch.X64) ~opc:0x8D r m
  | Insn.Add_ri (r, imm) -> alu_ri ~ext:0 r imm
  | Insn.Sub_ri (r, imm) -> alu_ri ~ext:5 r imm
  | Insn.Add_rr (a, b) -> rr ~opc:0x01 a b
  | Insn.Sub_rr (a, b) -> rr ~opc:0x29 a b
  | Insn.Cmp_ri (r, imm) -> alu_ri ~ext:7 r imm
  | Insn.Cmp_rr (a, b) -> rr ~opc:0x39 a b
  | Insn.Test_rr (a, b) -> rr ~opc:0x85 a b
  | Insn.Xor_rr (a, b) -> rr ~opc:0x31 a b
  | Insn.And_ri (r, imm) -> alu_ri ~ext:4 r imm
  | Insn.And_rr (a, b) -> rr ~opc:0x21 a b
  | Insn.Or_ri (r, imm) -> alu_ri ~ext:1 r imm
  | Insn.Or_rr (a, b) -> rr ~opc:0x09 a b
  | Insn.Inc r -> (
    match arch with
    | Arch.X86 ->
      check_reg arch r;
      W.u8 w' (0x40 lor (Register.index r land 7))
    | Arch.X64 -> reg_op ~w:true ~opc:0xFF ~ext:0 r)
  | Insn.Dec r -> (
    match arch with
    | Arch.X86 ->
      check_reg arch r;
      W.u8 w' (0x48 lor (Register.index r land 7))
    | Arch.X64 -> reg_op ~w:true ~opc:0xFF ~ext:1 r)
  | Insn.Neg r -> reg_op ~w:(arch = Arch.X64) ~opc:0xF7 ~ext:3 r
  | Insn.Not r -> reg_op ~w:(arch = Arch.X64) ~opc:0xF7 ~ext:2 r
  | Insn.Shl_ri (r, n) ->
    if n < 1 || n > 63 then invalid_arg "Encoder: shift amount";
    reg_op ~w:(arch = Arch.X64) ~opc:0xC1 ~ext:4 r;
    W.u8 w' n
  | Insn.Shr_ri (r, n) ->
    if n < 1 || n > 63 then invalid_arg "Encoder: shift amount";
    reg_op ~w:(arch = Arch.X64) ~opc:0xC1 ~ext:5 r;
    W.u8 w' n
  | Insn.Sar_ri (r, n) ->
    if n < 1 || n > 63 then invalid_arg "Encoder: shift amount";
    reg_op ~w:(arch = Arch.X64) ~opc:0xC1 ~ext:7 r;
    W.u8 w' n
  | Insn.Imul_rr (dst, src) ->
    emit_rex w' arch ~w:(arch = Arch.X64) ~reg:(Some dst) ~rm:(Some src) ~idx:None;
    W.u8 w' 0x0F;
    W.u8 w' 0xAF;
    modrm_reg w' ~ext:(Register.index dst land 7) ~rm:src
  | Insn.Movzx_b (dst, src) ->
    emit_rex w' arch ~w:(arch = Arch.X64) ~reg:(Some dst) ~rm:(Some src) ~idx:None;
    W.u8 w' 0x0F;
    W.u8 w' 0xB6;
    modrm_reg w' ~ext:(Register.index dst land 7) ~rm:src
  | Insn.Movsx_b (dst, src) ->
    emit_rex w' arch ~w:(arch = Arch.X64) ~reg:(Some dst) ~rm:(Some src) ~idx:None;
    W.u8 w' 0x0F;
    W.u8 w' 0xBE;
    modrm_reg w' ~ext:(Register.index dst land 7) ~rm:src
  | Insn.Setcc (c, r) ->
    emit_rex w' arch ~w:false ~reg:None ~rm:(Some r) ~idx:None;
    W.u8 w' 0x0F;
    W.u8 w' (0x90 lor Insn.cond_code c);
    modrm_reg w' ~ext:0 ~rm:r
  | Insn.Cmov (c, dst, src) ->
    emit_rex w' arch ~w:(arch = Arch.X64) ~reg:(Some dst) ~rm:(Some src) ~idx:None;
    W.u8 w' 0x0F;
    W.u8 w' (0x40 lor Insn.cond_code c);
    modrm_reg w' ~ext:(Register.index dst land 7) ~rm:src
  | Insn.Cdq -> W.u8 w' 0x99
  | Insn.Leave -> W.u8 w' 0xC9
  | Insn.Nop -> W.u8 w' 0x90
  | Insn.Nopl n ->
    (* Canonical GAS multi-byte NOPs (2–9 bytes). *)
    let bytes =
      match n with
      | 2 -> "\x66\x90"
      | 3 -> "\x0f\x1f\x00"
      | 4 -> "\x0f\x1f\x40\x00"
      | 5 -> "\x0f\x1f\x44\x00\x00"
      | 6 -> "\x66\x0f\x1f\x44\x00\x00"
      | 7 -> "\x0f\x1f\x80\x00\x00\x00\x00"
      | 8 -> "\x0f\x1f\x84\x00\x00\x00\x00\x00"
      | 9 -> "\x66\x0f\x1f\x84\x00\x00\x00\x00\x00"
      | _ -> invalid_arg "Encoder: Nopl length must be 2-9"
    in
    W.bytes w' bytes
  | Insn.Int3 -> W.u8 w' 0xCC
  | Insn.Hlt -> W.u8 w' 0xF4
  | Insn.Ud2 ->
    W.u8 w' 0x0F;
    W.u8 w' 0x0B);
  W.contents w'

let length arch insn = String.length (encode arch insn)

(* ---- The two-pass assembler ---------------------------------------- *)

let pad_amount addr boundary =
  let rem = addr mod boundary in
  if rem = 0 then 0 else boundary - rem

(* Representative encodings used only for size computation: all label-taking
   items encode with a fixed-size placeholder displacement. *)
let item_size ~arch ~addr = function
  | Label _ -> 0
  | Ins i -> length arch i
  | Call_lbl _ -> length arch (Insn.Call_rel 0)
  | Jmp_lbl _ -> length arch (Insn.Jmp_rel 0)
  | Jcc_lbl (c, _) -> length arch (Insn.Jcc_rel (c, 0))
  | Lea_lbl (r, _) ->
    (match arch with
    | Arch.X64 -> length arch (Insn.Lea (r, Insn.mem_abs 0))
    | Arch.X86 -> length arch (Insn.Mov_ri (r, 0)))
  | Push_lbl _ -> length arch (Insn.Push_imm 0x7fffffff)
  | Mov_mi_lbl (m, _) -> length arch (Insn.Mov_mi (m, 0))
  | Jmp_table_lbl { index; scale; notrack; _ } ->
    length arch
      (Insn.Jmp_mem
         { mem = { base = None; index = Some (index, scale); disp = 0 }; notrack })
  | Table { entries; entry_size } -> List.length entries * entry_size
  | Align boundary -> pad_amount addr boundary

let measure ~arch ~base items =
  let addr = ref base in
  let labels = ref [] in
  List.iter
    (fun item ->
      (match item with Label l -> labels := (l, !addr) :: !labels | _ -> ());
      addr := !addr + item_size ~arch ~addr:!addr item)
    items;
  (!addr - base, List.rev !labels)

let nop_fill n =
  let buf = Buffer.create n in
  let rec go n =
    if n = 1 then Buffer.add_string buf (encode Arch.X64 Insn.Nop)
    else if n >= 2 then begin
      let chunk = min n 9 in
      (* Avoid leaving a 1-byte tail that Nopl cannot represent. *)
      let chunk = if n - chunk = 1 then chunk - 1 else chunk in
      if chunk = 1 then Buffer.add_string buf (encode Arch.X64 Insn.Nop)
      else Buffer.add_string buf (encode Arch.X64 (Insn.Nopl chunk));
      go (n - chunk)
    end
  in
  go n;
  Buffer.contents buf

let assemble ~arch ~base ~resolve items =
  let _, local = measure ~arch ~base items in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (l, a) -> Hashtbl.replace tbl l a) local;
  let find l = match Hashtbl.find_opt tbl l with Some a -> a | None -> resolve l in
  let buf = Buffer.create 4096 in
  let addr () = base + Buffer.length buf in
  let check_rel32 v =
    if v < -0x80000000 || v > 0x7fffffff then invalid_arg "Asm: rel32 overflow"
  in
  let emit i = Buffer.add_string buf (encode arch i) in
  let rel32 target size =
    let v = target - (addr () + size) in
    check_rel32 v;
    v
  in
  List.iter
    (fun item ->
      match item with
      | Label _ -> ()
      | Ins i -> emit i
      | Call_lbl l ->
        let size = length arch (Insn.Call_rel 0) in
        emit (Insn.Call_rel (rel32 (find l) size))
      | Jmp_lbl l ->
        let size = length arch (Insn.Jmp_rel 0) in
        emit (Insn.Jmp_rel (rel32 (find l) size))
      | Jcc_lbl (c, l) ->
        let size = length arch (Insn.Jcc_rel (c, 0)) in
        emit (Insn.Jcc_rel (c, rel32 (find l) size))
      | Lea_lbl (r, l) ->
        (match arch with
        | Arch.X64 ->
          let size = length arch (Insn.Lea (r, Insn.mem_abs 0)) in
          emit (Insn.Lea (r, Insn.mem_abs (rel32 (find l) size)))
        | Arch.X86 -> emit (Insn.Mov_ri (r, find l)))
      | Push_lbl l ->
        let target = find l in
        (* Sizes were measured with the imm32 form; section bases guarantee
           code addresses never fit in imm8. *)
        assert (target >= 128);
        emit (Insn.Push_imm target)
      | Mov_mi_lbl (m, l) -> emit (Insn.Mov_mi (m, find l))
      | Jmp_table_lbl { table; index; scale; notrack } ->
        emit
          (Insn.Jmp_mem
             {
               mem = { base = None; index = Some (index, scale); disp = find table };
               notrack;
             })
      | Table { entries; entry_size } ->
        List.iter
          (fun l ->
            let v = find l in
            for i = 0 to entry_size - 1 do
              Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
            done)
          entries
      | Align boundary -> Buffer.add_string buf (nop_fill (pad_amount (addr ()) boundary)))
    items;
  Buffer.contents buf
