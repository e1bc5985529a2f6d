type bti_kind = Bti_c | Bti_j | Bti_jc

type t =
  | Bti of bti_kind
  | Bl of int
  | B of int
  | Cbnz of int * int
  | Ret
  | Br of int
  | Blr of int
  | Adrp of int * int
  | Add_imm of int * int * int
  | Movz of int * int
  | Sub_sp of int
  | Add_sp of int
  | Stp_fp_lr of int
  | Ldp_fp_lr of int
  | Nop
  | Udf

let check_reg r = if r < 0 || r > 30 then invalid_arg "A64: bad register"

let imm26 disp =
  if disp land 3 <> 0 then invalid_arg "A64: unaligned branch displacement";
  let words = disp asr 2 in
  if words < -0x2000000 || words > 0x1FFFFFF then invalid_arg "A64: branch out of range";
  words land 0x3FFFFFF

let imm19 disp =
  if disp land 3 <> 0 then invalid_arg "A64: unaligned branch displacement";
  let words = disp asr 2 in
  if words < -0x40000 || words > 0x3FFFF then invalid_arg "A64: cond branch out of range";
  words land 0x7FFFF

let encode = function
  | Bti Bti_c -> 0xD503245Fl
  | Bti Bti_j -> 0xD503249Fl
  | Bti Bti_jc -> 0xD50324DFl
  | Bl disp -> Int32.of_int (0x94000000 lor imm26 disp)
  | B disp -> Int32.of_int (0x14000000 lor imm26 disp)
  | Cbnz (r, disp) ->
    check_reg r;
    Int32.of_int (0xB5000000 lor (imm19 disp lsl 5) lor r)
  | Ret -> 0xD65F03C0l
  | Br r ->
    check_reg r;
    Int32.of_int (0xD61F0000 lor (r lsl 5))
  | Blr r ->
    check_reg r;
    Int32.of_int (0xD63F0000 lor (r lsl 5))
  | Adrp (r, disp) ->
    check_reg r;
    if disp land 0xFFF <> 0 then invalid_arg "A64: adrp needs page displacement";
    let pages = disp asr 12 in
    if pages < -0x100000 || pages > 0xFFFFF then invalid_arg "A64: adrp out of range";
    let lo = pages land 3 and hi = (pages asr 2) land 0x7FFFF in
    Int32.of_int (0x90000000 lor (lo lsl 29) lor (hi lsl 5) lor r)
  | Add_imm (rd, rn, imm) ->
    check_reg rd;
    if rn < 0 || rn > 31 then invalid_arg "A64: bad register";
    if imm < 0 || imm > 0xFFF then invalid_arg "A64: add imm12";
    Int32.of_int (0x91000000 lor (imm lsl 10) lor (rn lsl 5) lor rd)
  | Movz (rd, imm) ->
    check_reg rd;
    if imm < 0 || imm > 0xFFFF then invalid_arg "A64: movz imm16";
    Int32.of_int (0xD2800000 lor (imm lsl 5) lor rd)
  | Sub_sp imm ->
    if imm < 0 || imm > 0xFFF then invalid_arg "A64: sub sp imm";
    Int32.of_int (0xD10003FF lor (imm lsl 10))
  | Add_sp imm ->
    if imm < 0 || imm > 0xFFF then invalid_arg "A64: add sp imm";
    Int32.of_int (0x910003FF lor (imm lsl 10))
  | Stp_fp_lr imm ->
    (* stp x29, x30, [sp, #-imm]! — imm in bytes, multiple of 8, <= 512 *)
    if imm <= 0 || imm > 512 || imm land 7 <> 0 then invalid_arg "A64: stp offset";
    let imm7 = -imm asr 3 land 0x7F in
    Int32.of_int (0xA9807BFD lor (imm7 lsl 15))
  | Ldp_fp_lr imm ->
    if imm <= 0 || imm > 504 || imm land 7 <> 0 then invalid_arg "A64: ldp offset";
    let imm7 = imm asr 3 land 0x7F in
    Int32.of_int (0xA8C07BFD lor (imm7 lsl 15))
  | Nop -> 0xD503201Fl
  | Udf -> 0x00000000l

let encode_bytes t =
  let w = Int32.to_int (encode t) land 0xFFFFFFFF in
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (w land 0xff));
  Bytes.set b 1 (Char.chr ((w lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((w lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((w lsr 24) land 0xff));
  Bytes.to_string b

type kind =
  | K_bti of bti_kind
  | K_call of int
  | K_jmp of int
  | K_cond of int
  | K_ret
  | K_indirect_jmp
  | K_indirect_call
  | K_adrp of int
  | K_other

type ins = { addr : int; kind : kind }

let sign_extend v bits = if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v

(* The word at [off], which [sweep] keeps word-aligned and in bounds. *)
let decode code ~base ~off =
  let byte i = Char.code code.[off + i] in
  let w = byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24) in
  let addr = base + off in
  let kind =
    if w = 0xD503245F then K_bti Bti_c
    else if w = 0xD503249F then K_bti Bti_j
    else if w = 0xD50324DF then K_bti Bti_jc
    else if w land 0xFC000000 = 0x94000000 then
      K_call (addr + (sign_extend (w land 0x3FFFFFF) 26 * 4))
    else if w land 0xFC000000 = 0x14000000 then
      K_jmp (addr + (sign_extend (w land 0x3FFFFFF) 26 * 4))
    else if w land 0x7F000000 = 0x35000000 || w land 0x7F000000 = 0x34000000 then
      (* cbnz / cbz *)
      K_cond (addr + (sign_extend ((w lsr 5) land 0x7FFFF) 19 * 4))
    else if w land 0xFF000010 = 0x54000000 then
      (* b.cond *)
      K_cond (addr + (sign_extend ((w lsr 5) land 0x7FFFF) 19 * 4))
    else if w = 0xD65F03C0 then K_ret
    else if w land 0xFFFFFC1F = 0xD61F0000 then K_indirect_jmp
    else if w land 0xFFFFFC1F = 0xD63F0000 then K_indirect_call
    else if w land 0x9F000000 = 0x90000000 then begin
      let lo = (w lsr 29) land 3 and hi = (w lsr 5) land 0x7FFFF in
      let pages = sign_extend ((hi lsl 2) lor lo) 21 in
      K_adrp ((addr land lnot 0xFFF) + (pages * 4096))
    end
    else K_other
  in
  { addr; kind }

let sweep code ~base =
  let n = String.length code / 4 in
  List.init n (fun i -> decode code ~base ~off:(i * 4))
