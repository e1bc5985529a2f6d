module Sink = Encoder.Sink

type fill = Fill_nop | Fill_int3 | Fill_zero

type item =
  | Label of string
  | Ins of Insn.t
  | Call_lbl of string
  | Jmp_lbl of string
  | Jcc_lbl of Insn.cond * string
  | Lea_lbl of Register.t * string
  | Push_lbl of string
  | Mov_mi_lbl of Insn.mem * string
  | Jmp_table_lbl of { table : string; index : Register.t; scale : int; notrack : bool }
  | Mov_rm_table of { dst : Register.t; table : string; index : Register.t; scale : int }
  | Bytes_raw of string
  | Table of { entries : string list; entry_size : int }
  | Align of { boundary : int; fill : fill }

(* Relocation kinds.  A relocation is packed as [offset lsl 2 lor kind],
   where [offset] is that of the field within the section. *)
let k_rel32 = 0 (* target minus the end of the field, which ends its instruction *)
let k_abs32 = 1
let k_push32 = 2 (* the abs32 of [push imm32]: the target must not fit an imm8 *)
let k_abs64 = 3

type obj = {
  base : int;
  code : Sink.t;
  labels : (string, int) Hashtbl.t;
  mutable nrelocs : int;
  mutable relocs : int array;
  mutable syms : string array;
}

let size o = Sink.length o.code
let labels o = o.labels

(* Records a relocation for the [width]-byte field just emitted. *)
let reloc o kind ~width sym =
  let n = o.nrelocs in
  if n = Array.length o.relocs then begin
    let relocs = Array.make (2 * n) 0 and syms = Array.make (2 * n) "" in
    Array.blit o.relocs 0 relocs 0 n;
    Array.blit o.syms 0 syms 0 n;
    o.relocs <- relocs;
    o.syms <- syms
  end;
  Array.unsafe_set o.relocs n (((Sink.length o.code - width) lsl 2) lor kind);
  Array.unsafe_set o.syms n sym;
  o.nrelocs <- n + 1

let pad_amount addr boundary =
  let rem = addr mod boundary in
  if rem = 0 then 0 else boundary - rem

let nop_fill n =
  let buf = Buffer.create n in
  let rec go n =
    if n = 1 then Buffer.add_string buf (Encoder.encode Arch.X64 Insn.Nop)
    else if n >= 2 then begin
      let chunk = min n 9 in
      (* Avoid leaving a 1-byte tail that Nopl cannot represent. *)
      let chunk = if n - chunk = 1 then chunk - 1 else chunk in
      if chunk = 1 then Buffer.add_string buf (Encoder.encode Arch.X64 Insn.Nop)
      else Buffer.add_string buf (Encoder.encode Arch.X64 (Insn.Nopl chunk));
      go (n - chunk)
    end
  in
  go n;
  Buffer.contents buf

(* Every padding an alignment of up to 64 bytes can need. *)
let nop_fills = Array.init 64 nop_fill

(* Placeholder memory operands of the label-taking forms: each encodes
   with a disp32 whatever its value, so the field's size never depends on
   the label. *)
let rip0 = Insn.mem_abs 0
let table_mem index scale = { Insn.base = None; index = Some (index, scale); disp = 0 }

let emit_item o arch item =
  let code = o.code in
  match item with
  | Label l -> Hashtbl.replace o.labels l (o.base + Sink.length code)
  | Ins i -> Encoder.encode_into code arch i
  | Call_lbl l ->
    Encoder.encode_into code arch (Insn.Call_rel 0);
    reloc o k_rel32 ~width:4 l
  | Jmp_lbl l ->
    Encoder.encode_into code arch (Insn.Jmp_rel 0);
    reloc o k_rel32 ~width:4 l
  | Jcc_lbl (c, l) ->
    Encoder.encode_into code arch (Insn.Jcc_rel (c, 0));
    reloc o k_rel32 ~width:4 l
  | Lea_lbl (r, l) -> (
    match arch with
    | Arch.X64 ->
      Encoder.encode_into code arch (Insn.Lea (r, rip0));
      reloc o k_rel32 ~width:4 l
    | Arch.X86 ->
      Encoder.encode_into code arch (Insn.Mov_ri (r, 0));
      reloc o k_abs32 ~width:4 l)
  | Push_lbl l ->
    (* The imm32 form: section bases guarantee code addresses never fit
       in an imm8. *)
    Encoder.encode_into code arch (Insn.Push_imm 0x7fffffff);
    reloc o k_push32 ~width:4 l
  | Mov_mi_lbl (m, l) ->
    Encoder.encode_into code arch (Insn.Mov_mi (m, 0));
    reloc o k_abs32 ~width:4 l
  | Jmp_table_lbl { table; index; scale; notrack } ->
    Encoder.encode_into code arch (Insn.Jmp_mem { mem = table_mem index scale; notrack });
    reloc o k_abs32 ~width:4 table
  | Mov_rm_table { dst; table; index; scale } ->
    Encoder.encode_into code arch (Insn.Mov_rm (dst, table_mem index scale));
    reloc o k_abs32 ~width:4 table
  | Bytes_raw s -> Sink.add_string code s
  | Table { entries; entry_size } ->
    let kind =
      match entry_size with
      | 4 -> k_abs32
      | 8 -> k_abs64
      | _ -> invalid_arg "Asm: table entries must be 4 or 8 bytes"
    in
    List.iter
      (fun l ->
        Sink.add_fill code '\x00' entry_size;
        reloc o kind ~width:entry_size l)
      entries
  | Align { boundary; fill } -> (
    let n = pad_amount (o.base + Sink.length code) boundary in
    match fill with
    | Fill_nop -> Sink.add_string code (if n < 64 then nop_fills.(n) else nop_fill n)
    | Fill_int3 -> Sink.add_fill code '\xCC' n
    | Fill_zero -> Sink.add_fill code '\x00' n)

let layout ~arch ~base chunks =
  let o =
    {
      base;
      code = Sink.create 4096;
      labels = Hashtbl.create 1024;
      nrelocs = 0;
      relocs = Array.make 256 0;
      syms = Array.make 256 "";
    }
  in
  List.iter (List.iter (emit_item o arch)) chunks;
  o

let link o ~resolve =
  for i = 0 to o.nrelocs - 1 do
    let r = o.relocs.(i) and sym = o.syms.(i) in
    let at = r lsr 2 and kind = r land 3 in
    let target = try Hashtbl.find o.labels sym with Not_found -> resolve sym in
    if kind = k_rel32 then begin
      let v = target - (o.base + at + 4) in
      if v < -0x8000_0000 || v > 0x7fff_ffff then invalid_arg "Asm: rel32 overflow";
      Sink.patch o.code ~at ~width:4 v
    end
    else if kind = k_abs64 then Sink.patch o.code ~at ~width:8 target
    else begin
      if kind = k_push32 then assert (target >= 128);
      if target < -0x8000_0000 || target > 0xffff_ffff then
        invalid_arg "Asm: abs32 out of range";
      Sink.patch o.code ~at ~width:4 target
    end
  done;
  Sink.contents o.code

let assemble ~arch ~base ~resolve items = link (layout ~arch ~base [ items ]) ~resolve
