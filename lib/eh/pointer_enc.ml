module W = Cet_util.Bytesio.W
module R = Cet_util.Bytesio.R

let omit = 0xff
let absptr8 = 0x04 (* DW_EH_PE_udata8: absolute 8-byte *)
let pcrel_sdata4 = 0x1b
let udata4 = 0x03
let uleb = 0x01

let size = function
  | 0x00 -> Some 4 (* we only use absptr on ELF32 *)
  | 0x03 | 0x0b | 0x1b | 0x13 -> Some 4
  | 0x04 | 0x0c -> Some 8
  | _ -> None

let write w ~enc ~field_addr ~value =
  let pcrel = enc land 0x70 = 0x10 in
  let v = if pcrel then value - field_addr else value in
  match enc land 0x0f with
  | 0x00 -> W.u32 w v (* absptr (ELF32) *)
  | 0x03 -> W.u32 w v
  | 0x0b -> W.i32 w v
  | 0x04 -> W.u64 w v
  | 0x01 ->
    if pcrel then invalid_arg "Pointer_enc.write: pcrel uleb unsupported";
    W.uleb w v
  | _ -> invalid_arg (Printf.sprintf "Pointer_enc.write: encoding 0x%02x" enc)

let read r ~enc ~field_addr =
  if enc = omit then invalid_arg "Pointer_enc.read: omit";
  let pcrel = enc land 0x70 = 0x10 in
  let raw =
    match enc land 0x0f with
    | 0x00 -> R.u32 r
    | 0x03 -> R.u32 r
    | 0x0b -> R.i32 r
    | 0x04 -> R.u64 r
    | 0x0c -> R.u64 r
    | 0x01 -> R.uleb r
    | _ -> invalid_arg (Printf.sprintf "Pointer_enc.read: encoding 0x%02x" enc)
  in
  if pcrel then raw + field_addr else raw
