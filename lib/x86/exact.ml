(* Exact inverse of Encoder over the modelled subset, used to print what
   the Decoder found.  The parse mirrors Encoder's emission choices;
   anything else returns None and the printer falls back to the Decoder's
   coarse kind. *)

type cursor = { code : string; limit : int; mutable p : int }

exception Out_of_subset

let u8 c =
  if c.p >= c.limit then raise Out_of_subset;
  let v = Char.code c.code.[c.p] in
  c.p <- c.p + 1;
  v

let peek c = if c.p >= c.limit then raise Out_of_subset else Char.code c.code.[c.p]

let i8 c =
  let v = u8 c in
  if v >= 0x80 then v - 0x100 else v

let u16 c =
  let a = u8 c in
  a lor (u8 c lsl 8)

let i32 c =
  let a = u8 c in
  let b = u8 c in
  let d = u8 c in
  let e = u8 c in
  let v = a lor (b lsl 8) lor (d lsl 16) lor (e lsl 24) in
  if v >= 0x80000000 then v - 0x100000000 else v

type rex = { w : bool; r : bool; x : bool; b : bool }

let no_rex = { w = false; r = false; x = false; b = false }

let reg_of ~hi idx = Register.of_index (idx lor if hi then 8 else 0)

(* Parse a ModRM byte (plus SIB/displacement) into either a register or a
   memory operand, returning the reg-field as well. *)
type rm = R of Register.t | M of Insn.mem

let parse_modrm c rex =
  let m = u8 c in
  let md = m lsr 6 and reg = (m lsr 3) land 7 and rm = m land 7 in
  let reg = reg_of ~hi:rex.r reg in
  if md = 3 then (reg, R (reg_of ~hi:rex.b rm))
  else begin
    let mem =
      if rm = 4 then begin
        (* SIB *)
        let sib = u8 c in
        let ss = sib lsr 6 and idx = (sib lsr 3) land 7 and base = sib land 7 in
        let index =
          if idx = 4 && not rex.x then None
          else Some (reg_of ~hi:rex.x idx, 1 lsl ss)
        in
        if md = 0 && base = 5 then
          let disp = i32 c in
          { Insn.base = None; index; disp }
        else begin
          let base_reg = Some (reg_of ~hi:rex.b base) in
          let disp = match md with 1 -> i8 c | 2 -> i32 c | _ -> 0 in
          { Insn.base = base_reg; index; disp }
        end
      end
      else if md = 0 && rm = 5 then { Insn.base = None; index = None; disp = i32 c }
      else begin
        let disp = match md with 1 -> i8 c | 2 -> i32 c | _ -> 0 in
        { Insn.base = Some (reg_of ~hi:rex.b rm); index = None; disp }
      end
    in
    (reg, M mem)
  end

let nopl_bytes =
  (* Canonical multi-byte NOPs, length 2-9 (see Encoder). *)
  [
    (2, "\x66\x90");
    (3, "\x0f\x1f\x00");
    (4, "\x0f\x1f\x40\x00");
    (5, "\x0f\x1f\x44\x00\x00");
    (6, "\x66\x0f\x1f\x44\x00\x00");
    (7, "\x0f\x1f\x80\x00\x00\x00\x00");
    (8, "\x0f\x1f\x84\x00\x00\x00\x00\x00");
    (9, "\x66\x0f\x1f\x84\x00\x00\x00\x00\x00");
  ]

let starts_with code off s =
  off + String.length s <= String.length code && String.sub code off (String.length s) = s

let decode arch code ~off =
  if off < 0 || off >= String.length code then None
  else begin
    (* Multi-byte NOPs first: they overlap the 0x66-prefix space. *)
    match
      List.find_opt (fun (_, bytes) -> starts_with code off bytes) (List.rev nopl_bytes)
    with
    | Some (n, bytes) -> Some (Insn.Nopl n, String.length bytes)
    | None -> (
      let c = { code; limit = String.length code; p = off } in
      try
        let notrack = ref false in
        let rep = ref false in
        let rec prefixes () =
          match peek c with
          | 0x3E ->
            ignore (u8 c);
            notrack := true;
            prefixes ()
          | 0xF3 ->
            ignore (u8 c);
            rep := true;
            prefixes ()
          | _ -> ()
        in
        prefixes ();
        let rex =
          if arch = Arch.X64 && peek c >= 0x40 && peek c <= 0x4F then begin
            let b = u8 c in
            { w = b land 8 <> 0; r = b land 4 <> 0; x = b land 2 <> 0; b = b land 1 <> 0 }
          end
          else no_rex
        in
        let finish insn = Some (insn, c.p - off) in
        let opc = u8 c in
        match opc with
        | 0xF3 -> None (* handled as prefix *)
        | _ when !rep && opc = 0x0F ->
          (* F3 0F 1E FA/FB *)
          if u8 c = 0x1E then begin
            match u8 c with
            | 0xFA when arch = Arch.X64 -> finish Insn.Endbr
            | 0xFB when arch = Arch.X86 -> finish Insn.Endbr
            | _ -> None
          end
          else None
        | 0x0F -> (
          match u8 c with
          | 0x0B -> finish Insn.Ud2
          | op when op land 0xF0 = 0x80 -> (
            match Insn.cond_of_code (op land 0xF) with
            | Some cond -> finish (Insn.Jcc_rel (cond, i32 c))
            | None -> None)
          | 0xAF -> (
            match parse_modrm c rex with
            | reg, R rm -> finish (Insn.Imul_rr (reg, rm))
            | _ -> None)
          | 0xB6 -> (
            match parse_modrm c rex with
            | reg, R rm -> finish (Insn.Movzx_b (reg, rm))
            | _ -> None)
          | 0xBE -> (
            match parse_modrm c rex with
            | reg, R rm -> finish (Insn.Movsx_b (reg, rm))
            | _ -> None)
          | op when op land 0xF0 = 0x90 -> (
            match (Insn.cond_of_code (op land 0xF), parse_modrm c rex) with
            | Some cond, (_, R rm) -> finish (Insn.Setcc (cond, rm))
            | _ -> None)
          | op when op land 0xF0 = 0x40 -> (
            match (Insn.cond_of_code (op land 0xF), parse_modrm c rex) with
            | Some cond, (reg, R rm) -> finish (Insn.Cmov (cond, reg, rm))
            | _ -> None)
          | _ -> None)
        | 0xE8 -> finish (Insn.Call_rel (i32 c))
        | 0xE9 -> finish (Insn.Jmp_rel (i32 c))
        | 0xEB -> finish (Insn.Jmp_rel8 (i8 c))
        | op when op land 0xF0 = 0x70 -> (
          match Insn.cond_of_code (op land 0xF) with
          | Some cond -> finish (Insn.Jcc_rel8 (cond, i8 c))
          | None -> None)
        | 0xFF -> (
          let m = u8 c in
          c.p <- c.p - 1;
          let ext = (m lsr 3) land 7 in
          let _, rm = parse_modrm c rex in
          match (ext, rm) with
          | 0, R r when rex.w -> finish (Insn.Inc r)
          | 1, R r when rex.w -> finish (Insn.Dec r)
          | 2, R r -> finish (Insn.Call_reg r)
          | 2, M mem -> finish (Insn.Call_mem mem)
          | 4, R r -> finish (Insn.Jmp_reg { reg = r; notrack = !notrack })
          | 4, M mem -> finish (Insn.Jmp_mem { mem; notrack = !notrack })
          | _ -> None)
        | 0xC3 -> finish Insn.Ret
        | 0xC2 -> finish (Insn.Ret_imm (u16 c))
        | op when op land 0xF8 = 0x50 -> finish (Insn.Push (reg_of ~hi:rex.b (op land 7)))
        | op when op land 0xF8 = 0x58 -> finish (Insn.Pop (reg_of ~hi:rex.b (op land 7)))
        | 0x6A -> finish (Insn.Push_imm (i8 c))
        | 0x68 -> finish (Insn.Push_imm (i32 c))
        | 0x89 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Mov_rr (rm, reg))
          | reg, M mem -> finish (Insn.Mov_mr (mem, reg)))
        | 0x8B -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Mov_rr (reg, rm))
          | reg, M mem -> finish (Insn.Mov_rm (reg, mem)))
        | op when op land 0xF8 = 0xB8 ->
          if rex.w then None
          else finish (Insn.Mov_ri (reg_of ~hi:rex.b (op land 7), i32 c land 0xFFFFFFFF))
        | 0xC7 ->
          let ext = (peek c lsr 3) land 7 in
          if ext <> 0 then None
          else (
            match parse_modrm c rex with
            | _, M mem -> finish (Insn.Mov_mi (mem, i32 c))
            | _, R r -> finish (Insn.Mov_ri (r, i32 c)))
        | 0x8D -> (
          match parse_modrm c rex with
          | reg, M mem -> finish (Insn.Lea (reg, mem))
          | _ -> None)
        | 0x83 | 0x81 -> (
          let m = peek c in
          let ext = (m lsr 3) land 7 in
          match parse_modrm c rex with
          | _, R r -> (
            let imm = if opc = 0x83 then i8 c else i32 c in
            match ext with
            | 0 -> finish (Insn.Add_ri (r, imm))
            | 1 -> finish (Insn.Or_ri (r, imm))
            | 4 -> finish (Insn.And_ri (r, imm))
            | 5 -> finish (Insn.Sub_ri (r, imm))
            | 7 -> finish (Insn.Cmp_ri (r, imm))
            | _ -> None)
          | _ -> None)
        | 0x01 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Add_rr (rm, reg))
          | _ -> None)
        | 0x29 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Sub_rr (rm, reg))
          | _ -> None)
        | 0x39 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Cmp_rr (rm, reg))
          | _ -> None)
        | 0x85 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Test_rr (rm, reg))
          | _ -> None)
        | 0x31 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Xor_rr (rm, reg))
          | _ -> None)
        | 0x21 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.And_rr (rm, reg))
          | _ -> None)
        | 0x09 -> (
          match parse_modrm c rex with
          | reg, R rm -> finish (Insn.Or_rr (rm, reg))
          | _ -> None)
        | op when arch = Arch.X86 && op land 0xF8 = 0x40 ->
          finish (Insn.Inc (reg_of ~hi:false (op land 7)))
        | op when arch = Arch.X86 && op land 0xF8 = 0x48 ->
          finish (Insn.Dec (reg_of ~hi:false (op land 7)))
        | 0xF7 -> (
          let m = peek c in
          let ext = (m lsr 3) land 7 in
          match parse_modrm c rex with
          | _, R r -> (
            match ext with
            | 2 -> finish (Insn.Not r)
            | 3 -> finish (Insn.Neg r)
            | _ -> None)
          | _ -> None)
        | 0xC1 -> (
          let m = peek c in
          let ext = (m lsr 3) land 7 in
          match parse_modrm c rex with
          | _, R r -> (
            let n = u8 c in
            match ext with
            | 4 -> finish (Insn.Shl_ri (r, n))
            | 5 -> finish (Insn.Shr_ri (r, n))
            | 7 -> finish (Insn.Sar_ri (r, n))
            | _ -> None)
          | _ -> None)
        | 0x99 -> finish Insn.Cdq
        | 0xC9 -> finish Insn.Leave
        | 0x90 when not (!rep || rex.b) -> finish Insn.Nop
        | 0xCC -> finish Insn.Int3
        | 0xF4 -> finish Insn.Hlt
        | _ -> None
      with Out_of_subset -> None)
  end

let disassemble arch code ~base (ins : Decoder.ins) =
  match decode arch code ~off:(ins.addr - base) with
  | Some (insn, len) when len = ins.len -> Format.asprintf "%a" (Insn.pp ~arch) insn
  | _ -> Decoder.kind_to_string ins.kind
