(* The retired byte-at-a-time x86 / x86-64 decoder, kept as the
   differential-testing oracle for the table-driven scan core in
   [Cet_x86.Decoder].  It is the original hand-written match tree over
   the one- and two-byte opcode maps, with its own cursor and prefix
   record; test_prescan.ml pins the production core to it at every
   offset of the micro corpus and on random and edge-biased bytes.
   Not used by anything outside the tests. *)

module Arch = Cet_x86.Arch

type kind = Cet_x86.Decoder.kind =
  | Endbr64
  | Endbr32
  | Call_direct of int
  | Jmp_direct of int
  | Jcc_direct of int
  | Call_indirect of { goto : int option }
  | Jmp_indirect of { notrack : bool; goto : int option }
  | Ret
  | Halt
  | Addr_ref of int
  | Other

type ins = Cet_x86.Decoder.ins = { addr : int; len : int; kind : kind }

exception Bad of string

type cursor = { code : string; limit : int; mutable p : int }

let u8 c =
  if c.p >= c.limit then raise (Bad "truncated");
  let v = Char.code c.code.[c.p] in
  c.p <- c.p + 1;
  v

let peek c = if c.p >= c.limit then raise (Bad "truncated") else Char.code c.code.[c.p]

let skip c n =
  if c.p + n > c.limit then raise (Bad "truncated");
  c.p <- c.p + n

let i32 c =
  let a = u8 c in
  let b = u8 c in
  let d = u8 c in
  let e = u8 c in
  let v = a lor (b lsl 8) lor (d lsl 16) lor (e lsl 24) in
  if v >= 0x80000000 then v - 0x100000000 else v

let i8 c =
  let v = u8 c in
  if v >= 0x80 then v - 0x100 else v

type prefixes = {
  opsize : bool;  (* 0x66 *)
  addrsize : bool;  (* 0x67 *)
  rep : bool;  (* 0xF3 *)
  repn : bool;  (* 0xF2 *)
  notrack : bool;  (* 0x3E (DS segment override reused by CET) *)
  rex_w : bool;
}

(* Memory-operand summary extracted from ModRM/SIB: the reg/extension field
   and, for the bare disp32 form, the displacement (for GOT-slot targets). *)
type modrm_info = { reg_field : int; is_mem : bool; bare_disp : int option }

let parse_modrm c =
  let m = u8 c in
  let md = m lsr 6 in
  let reg_field = (m lsr 3) land 7 in
  let rm = m land 7 in
  if md = 3 then { reg_field; is_mem = false; bare_disp = None }
  else begin
    let bare = ref None in
    (if rm = 4 then begin
       let sib = u8 c in
       let sib_base = sib land 7 in
       if md = 0 && sib_base = 5 then skip c 4 (* disp32, indexed: not bare *)
     end
     else if md = 0 && rm = 5 then bare := Some (i32 c));
    (match md with
    | 1 -> skip c 1
    | 2 -> skip c 4
    | _ -> ());
    { reg_field; is_mem = true; bare_disp = !bare }
  end

(* Skip an immediate whose size follows the 'z' rule (2 with 0x66, else 4). *)
let skip_imm_z c pfx = skip c (if pfx.opsize then 2 else 4)

let decode_two_byte arch c pfx =
  let op = u8 c in
  match op with
  | 0x05 when arch = Arch.X64 -> Other (* syscall *)
  | 0x0B -> Other (* ud2 *)
  | 0x1E ->
    (* F3 0F 1E FA/FB are ENDBR64/ENDBR32; other forms are reserved NOPs. *)
    if pfx.rep && peek c = 0xFA then begin
      skip c 1;
      Endbr64
    end
    else if pfx.rep && peek c = 0xFB then begin
      skip c 1;
      Endbr32
    end
    else begin
      ignore (parse_modrm c);
      Other
    end
  | 0x1F ->
    ignore (parse_modrm c);
    Other (* multi-byte NOP *)
  | _ when op >= 0x40 && op <= 0x4F ->
    ignore (parse_modrm c);
    Other (* cmovcc *)
  | _ when op >= 0x80 && op <= 0x8F ->
    (* jcc rel32 *)
    if pfx.opsize then raise (Bad "jcc rel16");
    let rel = i32 c in
    Jcc_direct rel
  | _ when op >= 0x90 && op <= 0x9F ->
    ignore (parse_modrm c);
    Other (* setcc *)
  | 0xA2 -> Other (* cpuid *)
  | 0xAF ->
    ignore (parse_modrm c);
    Other (* imul *)
  | 0xB6 | 0xB7 | 0xBE | 0xBF ->
    ignore (parse_modrm c);
    Other (* movzx / movsx *)
  | 0xC8 | 0xC9 | 0xCA | 0xCB | 0xCC | 0xCD | 0xCE | 0xCF -> Other (* bswap *)
  | _ -> raise (Bad (Printf.sprintf "two-byte opcode 0f %02x" op))

let decode_one_byte arch c pfx =
  let x86 = arch = Arch.X86 in
  let op = u8 c in
  let modrm_only () =
    ignore (parse_modrm c);
    Other
  in
  match op with
  | _ when op < 0x40 && op land 7 <= 5 && op <> 0x0F ->
    (* add/or/adc/sbb/and/sub/xor/cmp families *)
    (match op land 7 with
    | 0 | 1 | 2 | 3 -> modrm_only ()
    | 4 ->
      skip c 1;
      Other
    | 5 ->
      skip_imm_z c pfx;
      Other
    | _ -> assert false)
  | 0x06 | 0x07 | 0x0E | 0x16 | 0x17 | 0x1E | 0x1F ->
    if x86 then Other (* push/pop segment *) else raise (Bad "seg push in 64-bit")
  | 0x27 | 0x2F | 0x37 | 0x3F ->
    if x86 then Other (* daa/das/aaa/aas *) else raise (Bad "bcd op in 64-bit")
  | _ when op >= 0x40 && op <= 0x4F ->
    if x86 then Other (* inc/dec reg *) else raise (Bad "stray rex")
  | _ when op >= 0x50 && op <= 0x5F -> Other (* push/pop reg *)
  | 0x60 | 0x61 -> if x86 then Other else raise (Bad "pusha in 64-bit")
  | 0x62 -> if x86 then modrm_only () else raise (Bad "bound/evex")
  | 0x63 -> modrm_only () (* arpl (x86) / movsxd (x64) *)
  | 0x68 ->
    if pfx.opsize then begin
      skip c 2;
      Other
    end
    else begin
      let v = i32 c in
      if x86 then Addr_ref (v land 0xFFFFFFFF) else Other
    end
  | 0x69 ->
    ignore (parse_modrm c);
    skip_imm_z c pfx;
    Other
  | 0x6A ->
    skip c 1;
    Other
  | 0x6B ->
    ignore (parse_modrm c);
    skip c 1;
    Other
  | 0x6C | 0x6D | 0x6E | 0x6F -> Other (* ins/outs *)
  | _ when op >= 0x70 && op <= 0x7F ->
    let rel = i8 c in
    Jcc_direct rel
  | 0x80 ->
    ignore (parse_modrm c);
    skip c 1;
    Other
  | 0x81 ->
    ignore (parse_modrm c);
    skip_imm_z c pfx;
    Other
  | 0x82 ->
    if x86 then begin
      ignore (parse_modrm c);
      skip c 1;
      Other
    end
    else raise (Bad "op 82 in 64-bit")
  | 0x83 ->
    ignore (parse_modrm c);
    skip c 1;
    Other
  | 0x84 | 0x85 | 0x86 | 0x87 | 0x88 | 0x89 | 0x8A | 0x8B | 0x8C | 0x8E ->
    modrm_only ()
  | 0x8D ->
    (* lea: a bare-disp operand materialises a code/data address
       (RIP-relative on x86-64, absolute on x86). *)
    let m = parse_modrm c in
    (match m.bare_disp with Some d -> Addr_ref d | None -> Other)
  | 0x8F -> modrm_only () (* pop r/m *)
  | _ when op >= 0x90 && op <= 0x97 -> Other (* nop / xchg *)
  | 0x98 | 0x99 -> Other
  | 0x9A ->
    if x86 then begin
      skip c 6;
      Other (* callf ptr16:32 *)
    end
    else raise (Bad "callf in 64-bit")
  | 0x9B | 0x9C | 0x9D | 0x9E | 0x9F -> Other
  | 0xA0 | 0xA1 | 0xA2 | 0xA3 ->
    skip c (if x86 then 4 else 8);
    Other (* mov moffs *)
  | 0xA4 | 0xA5 | 0xA6 | 0xA7 -> Other
  | 0xA8 ->
    skip c 1;
    Other
  | 0xA9 ->
    skip_imm_z c pfx;
    Other
  | _ when op >= 0xAA && op <= 0xAF -> Other (* stos/lods/scas *)
  | _ when op >= 0xB0 && op <= 0xB7 ->
    skip c 1;
    Other
  | _ when op >= 0xB8 && op <= 0xBF ->
    if pfx.rex_w || pfx.opsize then begin
      skip c (if pfx.rex_w then 8 else 2);
      Other
    end
    else begin
      let v = i32 c in
      if x86 then Addr_ref (v land 0xFFFFFFFF) else Other
    end
  | 0xC0 | 0xC1 ->
    ignore (parse_modrm c);
    skip c 1;
    Other
  | 0xC2 ->
    skip c 2;
    Ret
  | 0xC3 -> Ret
  | 0xC4 | 0xC5 -> if x86 then modrm_only () else raise (Bad "vex prefix")
  | 0xC6 ->
    ignore (parse_modrm c);
    skip c 1;
    Other
  | 0xC7 ->
    ignore (parse_modrm c);
    skip_imm_z c pfx;
    Other
  | 0xC8 ->
    skip c 3;
    Other (* enter *)
  | 0xC9 -> Other (* leave *)
  | 0xCA ->
    skip c 2;
    Ret
  | 0xCB -> Ret
  | 0xCC -> Other (* int3 *)
  | 0xCD ->
    skip c 1;
    Other
  | 0xCE -> if x86 then Other else raise (Bad "into in 64-bit")
  | 0xCF -> Other (* iret *)
  | 0xD0 | 0xD1 | 0xD2 | 0xD3 -> modrm_only ()
  | 0xD4 | 0xD5 ->
    if x86 then begin
      skip c 1;
      Other
    end
    else raise (Bad "aam/aad in 64-bit")
  | 0xD7 -> Other
  | _ when op >= 0xD8 && op <= 0xDF -> modrm_only () (* x87 *)
  | 0xE0 | 0xE1 | 0xE2 | 0xE3 ->
    let rel = i8 c in
    Jcc_direct rel (* loopcc / jcxz *)
  | 0xE4 | 0xE5 | 0xE6 | 0xE7 ->
    skip c 1;
    Other (* in/out imm8 *)
  | 0xE8 ->
    if pfx.opsize then raise (Bad "call rel16");
    let rel = i32 c in
    Call_direct rel
  | 0xE9 ->
    if pfx.opsize then raise (Bad "jmp rel16");
    let rel = i32 c in
    Jmp_direct rel
  | 0xEA ->
    if x86 then begin
      skip c 6;
      Other
    end
    else raise (Bad "jmpf in 64-bit")
  | 0xEB ->
    let rel = i8 c in
    Jmp_direct rel
  | 0xEC | 0xED | 0xEE | 0xEF -> Other (* in/out *)
  | 0xF1 -> Other (* int1 *)
  | 0xF4 -> Halt
  | 0xF5 -> Other (* cmc *)
  | 0xF6 ->
    let m = parse_modrm c in
    if m.reg_field <= 1 then skip c 1;
    Other
  | 0xF7 ->
    let m = parse_modrm c in
    if m.reg_field <= 1 then skip_imm_z c pfx;
    Other
  | _ when op >= 0xF8 && op <= 0xFD -> Other (* clc..std *)
  | 0xFE ->
    let m = parse_modrm c in
    if m.reg_field > 1 then raise (Bad "fe group");
    Other
  | 0xFF ->
    let m = parse_modrm c in
    (* For the bare-disp32 memory form, [m.bare_disp] carries the raw
       displacement: absolute slot on x86, RIP-relative on x64.  The caller
       resolves it once the instruction length is known. *)
    (match m.reg_field with
    | 0 | 1 -> Other (* inc/dec r/m *)
    | 2 -> Call_indirect { goto = m.bare_disp }
    | 3 -> if x86 then Other else raise (Bad "callf m in 64-bit")
    | 4 -> Jmp_indirect { notrack = pfx.notrack; goto = m.bare_disp }
    | 5 -> if x86 then Other else raise (Bad "jmpf m in 64-bit")
    | 6 -> Other (* push r/m *)
    | _ -> raise (Bad "ff /7"))
  | 0x0F | 0x26 | 0x2E | 0x36 | 0x3E | 0x64 | 0x65 | 0x66 | 0x67 | 0xF0 | 0xF2 | 0xF3 ->
    (* Normally consumed before dispatch; reachable only when a legacy
       prefix follows REX (hardware would ignore the REX).  Reject. *)
    raise (Bad "legacy prefix after REX")
  | _ -> raise (Bad (Printf.sprintf "opcode %02x" op))

let decode arch code ~base ~off =
  let limit = String.length code in
  if off < 0 || off >= limit then Error "offset out of range"
  else begin
    let c = { code; limit; p = off } in
    let vaddr = base + off in
    try
      let opsize = ref false
      and addrsize = ref false
      and rep = ref false
      and repn = ref false
      and notrack = ref false
      and rex_w = ref false in
      let rec prefixes n =
        if n > 14 then raise (Bad "prefix overflow");
        match peek c with
        | 0x66 ->
          skip c 1;
          opsize := true;
          prefixes (n + 1)
        | 0x67 ->
          skip c 1;
          addrsize := true;
          prefixes (n + 1)
        | 0xF3 ->
          skip c 1;
          rep := true;
          prefixes (n + 1)
        | 0xF2 ->
          skip c 1;
          repn := true;
          prefixes (n + 1)
        | 0xF0 ->
          skip c 1;
          prefixes (n + 1)
        | 0x3E ->
          skip c 1;
          notrack := true;
          prefixes (n + 1)
        | 0x26 | 0x2E | 0x36 | 0x64 | 0x65 ->
          skip c 1;
          prefixes (n + 1)
        | b when arch = Arch.X64 && b >= 0x40 && b <= 0x4F ->
          skip c 1;
          rex_w := b land 8 <> 0;
          (* REX must be last before the opcode. *)
          ()
        | _ -> ()
      in
      prefixes 0;
      let pfx =
        {
          opsize = !opsize;
          addrsize = !addrsize;
          rep = !rep;
          repn = !repn;
          notrack = !notrack;
          rex_w = !rex_w;
        }
      in
      if pfx.addrsize then raise (Bad "address-size prefix unsupported");
      let raw_kind =
        if peek c = 0x0F then begin
          skip c 1;
          decode_two_byte arch c pfx
        end
        else decode_one_byte arch c pfx
      in
      let len = c.p - off in
      let next = vaddr + len in
      let resolve_slot d = match arch with Arch.X86 -> d | Arch.X64 -> next + d in
      let kind =
        match raw_kind with
        | Call_direct rel -> Call_direct (next + rel)
        | Jmp_direct rel -> Jmp_direct (next + rel)
        | Jcc_direct rel -> Jcc_direct (next + rel)
        | Call_indirect { goto = Some d } -> Call_indirect { goto = Some (resolve_slot d) }
        | Jmp_indirect { notrack; goto = Some d } ->
          Jmp_indirect { notrack; goto = Some (resolve_slot d) }
        | Addr_ref d ->
          (* On x86-64 the only Addr_ref producer is RIP-relative lea;
             on x86 all producers carry absolute operands. *)
          Addr_ref (resolve_slot d)
        | k -> k
      in
      Ok { addr = vaddr; len; kind }
    with
    | Bad msg -> Error msg
  end
