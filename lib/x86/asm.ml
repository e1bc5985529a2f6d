module Sink = Encoder.Sink

type label = int

(* Relocation kinds.  A relocation is packed as [offset lsl 2 lor kind],
   where [offset] is that of the field within the buffer. *)
let k_rel32 = 0 (* target minus the end of the field, which ends its instruction *)
let k_abs32 = 1
let k_push32 = 2 (* the abs32 of [push imm32]: the target must not fit an imm8 *)
let k_abs64 = 3

(* The base of a side buffer, which has no address until it is appended. *)
let no_base = min_int

type t = {
  arch : Arch.t;
  base : int;
  code : Sink.t;
  mutable ndefs : int;
  mutable defs : int array;  (* label, offset: two ints per definition *)
  mutable nrelocs : int;
  mutable relocs : int array;
  mutable targets : int array;  (* the label of each relocation *)
}

let create ~arch ~base =
  {
    arch;
    base;
    code = Sink.create (if base = no_base then 64 else 4096);
    ndefs = 0;
    defs = [||];
    nrelocs = 0;
    relocs = [||];
    targets = [||];
  }

let side t = create ~arch:t.arch ~base:no_base
let size t = Sink.length t.code

let grow a n =
  let b = Array.make (max 16 (2 * n)) 0 in
  Array.blit a 0 b 0 n;
  b

let define_at t l off =
  let n = 2 * t.ndefs in
  if n = Array.length t.defs then t.defs <- grow t.defs n;
  Array.unsafe_set t.defs n l;
  Array.unsafe_set t.defs (n + 1) off;
  t.ndefs <- t.ndefs + 1

let reloc_at t r l =
  let n = t.nrelocs in
  if n = Array.length t.relocs then begin
    t.relocs <- grow t.relocs n;
    t.targets <- grow t.targets n
  end;
  Array.unsafe_set t.relocs n r;
  Array.unsafe_set t.targets n l;
  t.nrelocs <- n + 1

let define t l = define_at t l (Sink.length t.code)

(* Records a relocation for the [width]-byte field just emitted. *)
let reloc t kind ~width l = reloc_at t (((Sink.length t.code - width) lsl 2) lor kind) l

let append dst src =
  let off = Sink.length dst.code in
  Sink.add_sink dst.code src.code;
  for i = 0 to src.ndefs - 1 do
    define_at dst src.defs.(2 * i) (src.defs.((2 * i) + 1) + off)
  done;
  for i = 0 to src.nrelocs - 1 do
    reloc_at dst (src.relocs.(i) + (off lsl 2)) src.targets.(i)
  done

(* Placeholder memory operands of the label-taking forms: each encodes
   with a disp32 whatever its value, so the field's size never depends on
   the label. *)
let rip0 = Insn.mem_abs 0
let table_mem index scale = { Insn.base = None; index = Some (index, scale); disp = 0 }

let ins t i = Encoder.encode_into t.code t.arch i
let bytes t s ~pos ~len = Sink.add_substring t.code s pos len

let call t l =
  ins t (Insn.Call_rel 0);
  reloc t k_rel32 ~width:4 l

let jmp t l =
  ins t (Insn.Jmp_rel 0);
  reloc t k_rel32 ~width:4 l

let jcc t c l =
  ins t (Insn.Jcc_rel (c, 0));
  reloc t k_rel32 ~width:4 l

let lea t r l =
  match t.arch with
  | Arch.X64 ->
    ins t (Insn.Lea (r, rip0));
    reloc t k_rel32 ~width:4 l
  | Arch.X86 ->
    ins t (Insn.Mov_ri (r, 0));
    reloc t k_abs32 ~width:4 l

let push t l =
  (* The imm32 form: section bases guarantee code addresses never fit in
     an imm8. *)
  ins t (Insn.Push_imm 0x7fffffff);
  reloc t k_push32 ~width:4 l

let mov_mi t m l =
  ins t (Insn.Mov_mi (m, 0));
  reloc t k_abs32 ~width:4 l

let jmp_table t ~table ~index ~scale ~notrack =
  ins t (Insn.Jmp_mem { mem = table_mem index scale; notrack });
  reloc t k_abs32 ~width:4 table

let table t ~entry_size entries =
  let kind =
    match entry_size with
    | 4 -> k_abs32
    | 8 -> k_abs64
    | _ -> invalid_arg "Asm: table entries must be 4 or 8 bytes"
  in
  List.iter
    (fun l ->
      Sink.add_fill t.code '\x00' entry_size;
      reloc t kind ~width:entry_size l)
    entries

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

let align t boundary =
  if t.base = no_base then invalid_arg "Asm.align: a side buffer has no address";
  let n = pad_amount (t.base + Sink.length t.code) boundary in
  Sink.add_string t.code (if n < 64 then nop_fills.(n) else nop_fill n)

let addresses t n =
  let a = Array.make n (-1) in
  for i = 0 to t.ndefs - 1 do
    a.(t.defs.(2 * i)) <- t.base + t.defs.((2 * i) + 1)
  done;
  a

let link t addrs =
  for i = 0 to t.nrelocs - 1 do
    let r = t.relocs.(i) and l = t.targets.(i) in
    let at = r lsr 2 and kind = r land 3 in
    let target = addrs.(l) in
    if target = -1 then invalid_arg (Printf.sprintf "Asm: undefined label %d" l);
    if kind = k_rel32 then begin
      let v = target - (t.base + at + 4) in
      if v < -0x8000_0000 || v > 0x7fff_ffff then invalid_arg "Asm: rel32 overflow";
      Sink.patch t.code ~at ~width:4 v
    end
    else if kind = k_abs64 then Sink.patch t.code ~at ~width:8 target
    else begin
      if kind = k_push32 then assert (target >= 128);
      if target < -0x8000_0000 || target > 0xffff_ffff then
        invalid_arg "Asm: abs32 out of range";
      Sink.patch t.code ~at ~width:4 target
    end
  done;
  Sink.contents t.code
