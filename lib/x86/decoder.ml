type kind =
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

type ins = { addr : int; len : int; kind : kind }

let tag_other = 0
let tag_endbr64 = 1
let tag_endbr32 = 2
let tag_call_direct = 3
let tag_jmp_direct = 4
let tag_jcc_direct = 5
let tag_call_indirect = 6
let tag_jmp_indirect = 7
let tag_ret = 8
let tag_halt = 9
let tag_addr_ref = 10

(* The flag byte a stream keeps per instruction: the tag in the low
   nibble, plus three bits an [ins] carries beyond it or ignores. *)
let flag_notrack = 16
let flag_goto = 32
let flag_padding = 64

(* ---- Opcode tables ---------------------------------------------------- *)

(* Every opcode of the decoded subset is one of a dozen operand shapes.
   The one-byte map and the [0F] map are stored end to end (index [op] and
   [256 + op]); each entry is a shape plus a 16-bit info word carrying the
   flag bits of the plain forms (low byte: the tag, and [flag_padding] for
   the NOP and INT3 fill) and the immediate that follows the opcode or its
   ModRM operand (high byte: a byte count, or [imm_z]). *)
type shape =
  | Bad  (** outside the decoded subset *)
  | Fixed  (** opcode, then the immediate *)
  | Nop  (** 90: padding, unless F3 (PAUSE) or REX.B (XCHG with r8) *)
  | Modrm  (** ModRM (+ SIB, displacement), then the immediate *)
  | Rel8  (** 8-bit relative branch *)
  | Rel32  (** 32-bit relative branch; the 66 (rel16) form is rejected *)
  | Imm32_ref  (** x86 [push imm] / [mov r, imm]: a 32-bit immediate is an address *)
  | Imm_v  (** x86-64 [mov r, imm]: 8 bytes under REX.W, 2 under 66, else 4 *)
  | Lea  (** [lea]: a bare disp32 operand is an address *)
  | Group3  (** F6/F7: the immediate follows only for /0 and /1 *)
  | Group4  (** FE: only /0 and /1 exist *)
  | Group5  (** FF: the reg field picks the operation (the [ff] row) *)
  | Endbr  (** 0F 1E: ENDBR64/32 under F3 with ModRM FA/FB, else a hint NOP *)

(* Immediate size code for "2 under a 66 prefix, else 4". *)
let imm_z = 15

(* Prefix-map entries: the flag bits a prefix sets, plus its class. *)
let pf_opsize = 1
let pf_rep = 2
let pf_rexw = 4
let pf_notrack = 8
let px_legacy = 16 (* counts toward the 14-prefix limit *)
let px_rex = 32 (* x86-64 only; must be last before the opcode *)
let px_reject = 64 (* 67 (address size): outside the subset *)
let pf_rexb = 128 (* REX.B: 90 is XCHG with r8, not a NOP *)

(* ModRM length rule, one entry per ModRM byte: the displacement length
   (low 3 bits), whether a SIB byte follows, and whether the operand is
   the bare disp32 form (RIP-relative on x86-64, absolute on x86). *)
let mr_sib = 8
let mr_bare = 16

let modrm_rule =
  String.init 256 (fun m ->
      let md = m lsr 6 and rm = m land 7 in
      let disp = match md with 1 -> 1 | 2 -> 4 | 0 when rm = 5 -> 4 | _ -> 0 in
      let sib = if md <> 3 && rm = 4 then mr_sib else 0 in
      let bare = if md = 0 && rm = 5 then mr_bare else 0 in
      Char.chr (disp lor sib lor bare))

type tables = {
  prefix : string;  (** byte -> prefix-map entry, 0 for an opcode byte *)
  shape : shape array;  (** one-byte map at [op], 0F map at [256 + op] *)
  info : string;
      (** 16-bit native-endian words, same indexing: flag bits lor
          (immediate lsl 8) *)
  ff : string;  (** FF reg field -> tag, ['\255'] where undefined *)
  rip_relative : bool;  (** bare disp32 and lea operands are RIP-relative *)
}

let build arch =
  let x86 = arch = Arch.X86 in
  let prefix = Bytes.make 256 '\000' in
  let set_prefix e bytes = List.iter (fun b -> Bytes.set prefix b (Char.chr e)) bytes in
  set_prefix px_legacy [ 0x26; 0x2E; 0x36; 0x64; 0x65; 0xF0; 0xF2 ];
  set_prefix (px_legacy lor pf_opsize) [ 0x66 ];
  set_prefix (px_legacy lor pf_rep) [ 0xF3 ];
  set_prefix (px_legacy lor pf_notrack) [ 0x3E ];
  set_prefix px_reject [ 0x67 ];
  if not x86 then
    for b = 0x40 to 0x4F do
      let w = if b land 8 <> 0 then pf_rexw else 0
      and rb = if b land 1 <> 0 then pf_rexb else 0 in
      Bytes.set prefix b (Char.chr (px_rex lor w lor rb))
    done;
  let shape = Array.make 512 Bad and info = Bytes.make 1024 '\000' in
  let set ?(tag = tag_other) ?(pad = false) ?(imm = 0) sh ops =
    let flags = tag lor if pad then flag_padding else 0 in
    List.iter
      (fun op ->
        shape.(op) <- sh;
        Bytes.set_uint16_ne info (2 * op) (flags lor (imm lsl 8)))
      ops
  in
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let only_x86 ops = if x86 then ops else [] in
  let only_x64 ops = if x86 then [] else ops in
  (* One-byte map.  ALU families 00-3F: /r forms, then AL,imm8 and
     eAX,imm-z. *)
  List.iter
    (fun row ->
      set Modrm (range row (row + 3));
      set Fixed ~imm:1 [ row + 4 ];
      set Fixed ~imm:imm_z [ row + 5 ])
    [ 0x00; 0x08; 0x10; 0x18; 0x20; 0x28; 0x30; 0x38 ];
  set Fixed (only_x86 [ 0x06; 0x07; 0x0E; 0x16; 0x17; 0x1E; 0x1F ]) (* push/pop seg *);
  set Fixed (only_x86 [ 0x27; 0x2F; 0x37; 0x3F ]) (* daa/das/aaa/aas *);
  set Fixed (only_x86 (range 0x40 0x4F)) (* inc/dec r; REX on x86-64 *);
  set Fixed (range 0x50 0x5F) (* push/pop r *);
  set Fixed (only_x86 [ 0x60; 0x61 ]);
  set Modrm (only_x86 [ 0x62 ]) (* bound; EVEX on x86-64 *);
  set Modrm [ 0x63 ] (* arpl / movsxd *);
  if x86 then set Imm32_ref [ 0x68 ] else set Fixed ~imm:imm_z [ 0x68 ];
  set Modrm ~imm:imm_z [ 0x69 ];
  set Fixed ~imm:1 [ 0x6A ];
  set Modrm ~imm:1 [ 0x6B ];
  set Fixed (range 0x6C 0x6F) (* ins/outs *);
  set Rel8 ~tag:tag_jcc_direct (range 0x70 0x7F);
  set Modrm ~imm:1 ([ 0x80; 0x83 ] @ only_x86 [ 0x82 ]);
  set Modrm ~imm:imm_z [ 0x81 ];
  set Modrm (range 0x84 0x8C @ [ 0x8E; 0x8F ]);
  set Lea [ 0x8D ];
  set Nop ~pad:true [ 0x90 ];
  set Fixed (range 0x91 0x99 @ range 0x9B 0x9F);
  set Fixed ~imm:6 (only_x86 [ 0x9A ]) (* callf ptr16:32 *);
  set Fixed ~imm:(if x86 then 4 else 8) (range 0xA0 0xA3) (* mov moffs *);
  set Fixed (range 0xA4 0xA7 @ range 0xAA 0xAF) (* string ops *);
  set Fixed ~imm:1 [ 0xA8 ];
  set Fixed ~imm:imm_z [ 0xA9 ];
  set Fixed ~imm:1 (range 0xB0 0xB7);
  set (if x86 then Imm32_ref else Imm_v) (range 0xB8 0xBF);
  set Modrm ~imm:1 [ 0xC0; 0xC1; 0xC6 ];
  set Fixed ~tag:tag_ret ~imm:2 [ 0xC2; 0xCA ];
  set Fixed ~tag:tag_ret [ 0xC3; 0xCB ];
  set Modrm (only_x86 [ 0xC4; 0xC5 ]) (* les/lds; VEX on x86-64 *);
  set Modrm ~imm:imm_z [ 0xC7 ];
  set Fixed ~imm:3 [ 0xC8 ] (* enter *);
  set Fixed ([ 0xC9; 0xCF ] @ only_x86 [ 0xCE ]);
  set Fixed ~pad:true [ 0xCC ] (* int3 *);
  set Fixed ~imm:1 [ 0xCD ];
  set Modrm (range 0xD0 0xD3 @ range 0xD8 0xDF) (* shifts, x87 *);
  set Fixed ~imm:1 (only_x86 [ 0xD4; 0xD5 ]) (* aam/aad *);
  set Fixed [ 0xD7 ];
  set Rel8 ~tag:tag_jcc_direct (range 0xE0 0xE3) (* loopcc / jcxz *);
  set Fixed ~imm:1 (range 0xE4 0xE7) (* in/out imm8 *);
  set Rel32 ~tag:tag_call_direct [ 0xE8 ];
  set Rel32 ~tag:tag_jmp_direct [ 0xE9 ];
  set Fixed ~imm:6 (only_x86 [ 0xEA ]) (* jmpf ptr16:32 *);
  set Rel8 ~tag:tag_jmp_direct [ 0xEB ];
  set Fixed (range 0xEC 0xEF @ [ 0xF1; 0xF5 ] @ range 0xF8 0xFD);
  set Fixed ~tag:tag_halt [ 0xF4 ];
  set Group3 ~imm:1 [ 0xF6 ];
  set Group3 ~imm:imm_z [ 0xF7 ];
  set Group4 [ 0xFE ];
  set Group5 [ 0xFF ];
  (* 0F map. *)
  let two ops = List.map (fun op -> 256 + op) ops in
  set Fixed (two (only_x64 [ 0x05 ] @ [ 0x0B; 0xA2 ] @ range 0xC8 0xCF))
  (* syscall, ud2, cpuid, bswap *);
  set Endbr (two [ 0x1E ]);
  set Modrm ~pad:true (two [ 0x1F ]) (* nop r/m, under any prefixes *);
  set Modrm (two ([ 0xAF; 0xB6; 0xB7; 0xBE; 0xBF ] @ range 0x40 0x4F @ range 0x90 0x9F))
  (* imul, movzx/movsx, cmovcc, setcc *);
  set Rel32 ~tag:tag_jcc_direct (two (range 0x80 0x8F));
  let bad = '\255' and other = Char.chr tag_other in
  let far = if x86 then other else bad in
  let ff =
    String.of_seq
      (List.to_seq
         [ other; other; Char.chr tag_call_indirect; far; Char.chr tag_jmp_indirect; far; other; bad ])
  in
  {
    prefix = Bytes.to_string prefix;
    shape;
    info = Bytes.to_string info;
    ff;
    rip_relative = not x86;
  }

let tables_x64 = build Arch.X64
let tables_x86 = build Arch.X86

(* ---- The scan core ---------------------------------------------------- *)

type scratch = {
  mutable s_addr : int;  (* virtual address of the scanned instruction *)
  mutable s_len : int;
  mutable s_tag : int;  (* the tag, plus [flag_padding] on fill *)
  mutable s_target : int;  (* payload of direct/addr-ref/goto tags *)
  mutable s_has_target : bool;  (* indirect tags: [goto] present *)
  mutable s_notrack : bool;
  (* ModRM result slots (valid right after [modrm]) *)
  mutable s_mreg : int;
  mutable s_mbare : bool;
  mutable s_mdisp : int;
}

let scratch () =
  {
    s_addr = 0;
    s_len = 0;
    s_tag = tag_other;
    s_target = 0;
    s_has_target = false;
    s_notrack = false;
    s_mreg = 0;
    s_mbare = false;
    s_mdisp = 0;
  }

let scratch_addr s = s.s_addr
let scratch_len s = s.s_len
let scratch_tag s = s.s_tag land 15
let scratch_target s = s.s_target

(* Constant exception: raising it allocates nothing. *)
exception Scan_fail

let[@inline] byte code p = Char.code (String.unsafe_get code p)

(* Every read is guarded by [need]: [p + n] bytes must lie below [limit]
   (which is at most [String.length code], so the reads that follow are
   in bounds and read unchecked, as [String.get_int32_le] does after its
   own bounds check). *)
let[@inline] need p n limit = if p + n > limit then raise_notrace Scan_fail

external get32u : string -> int -> int32 = "%caml_string_get32u"
external get16u : string -> int -> int = "%caml_string_get16u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] i32 code p =
  let v = get32u code p in
  Int32.to_int (if Sys.big_endian then swap32 v else v)

let[@inline] i8 code p = (byte code p lxor 0x80) - 0x80

let[@inline] imm_len info pfx =
  let n = info lsr 8 in
  if n <> imm_z then n else if pfx land pf_opsize <> 0 then 2 else 4

(* The ModRM operand at [p]: records the reg field and any bare disp32 in
   [s], returns the position after the SIB byte and displacement. *)
let[@inline] modrm s code limit p =
  need p 1 limit;
  let m = byte code p in
  let r = Char.code (String.unsafe_get modrm_rule m) in
  s.s_mreg <- (m lsr 3) land 7;
  let q =
    if r land mr_sib = 0 then p + 1 + (r land 7)
    else begin
      need p 2 limit;
      (* mod 00 with SIB base 101: a disp32 follows the SIB byte *)
      p + 2 + if m < 0x40 && byte code (p + 1) land 7 = 5 then 4 else r land 7
    end
  in
  need q 0 limit;
  if r land mr_bare <> 0 then begin
    s.s_mbare <- true;
    s.s_mdisp <- i32 code (p + 1)
  end
  else s.s_mbare <- false;
  q

let[@inline] tables arch = match arch with Arch.X64 -> tables_x64 | Arch.X86 -> tables_x86

(* The instruction at [off] into [s], through tables [t].  The caller
   guarantees [0 <= off < limit <= String.length code]: the first byte is
   read unguarded, and [need] keeps every later read below [limit].  It
   is inlined into its two callers, {!scan} and the loop of {!walk}, so
   that the loop pays no call per instruction. *)
let[@inline] core t (s : scratch) code ~limit ~base ~off =
  s.s_addr <- base + off;
  s.s_target <- 0;
  s.s_has_target <- false;
  try
    (* Prefix run: legacy prefixes (at most 14), then an optional REX. *)
    let p = ref off and pfx = ref 0 and n = ref 0 in
    let e = ref (Char.code (String.unsafe_get t.prefix (byte code off))) in
    while !e land px_legacy <> 0 do
      if !n = 14 then raise_notrace Scan_fail;
      incr n;
      pfx := !pfx lor !e;
      incr p;
      need !p 1 limit;
      e := Char.code (String.unsafe_get t.prefix (byte code !p))
    done;
    if !e <> 0 then begin
      if !e land px_reject <> 0 then raise_notrace Scan_fail;
      pfx := !pfx lor !e;
      incr p
    end;
    let pfx = !pfx in
    s.s_notrack <- pfx land pf_notrack <> 0;
    (* Opcode, through the 0F escape into the second map. *)
    need !p 1 limit;
    let op = byte code !p in
    incr p;
    let idx =
      if op <> 0x0F then op
      else begin
        need !p 1 limit;
        let op2 = byte code !p in
        incr p;
        256 + op2
      end
    in
    let p = !p in
    let info = get16u t.info (2 * idx) in
    s.s_tag <- info land 0xFF;
    let q =
      match Array.unsafe_get t.shape idx with
      | Bad -> raise_notrace Scan_fail
      | Fixed -> p + imm_len info pfx
      | Nop ->
        if pfx land (pf_rep lor pf_rexb) <> 0 then s.s_tag <- tag_other;
        p
      | Modrm -> modrm s code limit p + imm_len info pfx
      | Rel8 ->
        need p 1 limit;
        s.s_target <- i8 code p;
        p + 1
      | Rel32 ->
        if pfx land pf_opsize <> 0 then raise_notrace Scan_fail;
        need p 4 limit;
        s.s_target <- i32 code p;
        p + 4
      | Imm32_ref ->
        if pfx land pf_opsize <> 0 then p + 2
        else begin
          need p 4 limit;
          s.s_tag <- tag_addr_ref;
          s.s_target <- i32 code p land 0xFFFFFFFF;
          p + 4
        end
      | Imm_v ->
        p + if pfx land pf_rexw <> 0 then 8 else if pfx land pf_opsize <> 0 then 2 else 4
      | Lea ->
        let q = modrm s code limit p in
        if s.s_mbare then begin
          s.s_tag <- tag_addr_ref;
          s.s_target <- s.s_mdisp
        end;
        q
      | Group3 ->
        let q = modrm s code limit p in
        if s.s_mreg <= 1 then q + imm_len info pfx else q
      | Group4 ->
        let q = modrm s code limit p in
        if s.s_mreg > 1 then raise_notrace Scan_fail;
        q
      | Group5 ->
        let q = modrm s code limit p in
        let tag = Char.code (String.unsafe_get t.ff s.s_mreg) in
        if tag = 255 then raise_notrace Scan_fail;
        s.s_tag <- tag;
        if (tag = tag_call_indirect || tag = tag_jmp_indirect) && s.s_mbare then begin
          s.s_has_target <- true;
          s.s_target <- s.s_mdisp
        end;
        q
      | Endbr ->
        need p 1 limit;
        let m = byte code p in
        let q = modrm s code limit p in
        if pfx land pf_rep <> 0 then
          if m = 0xFA then s.s_tag <- tag_endbr64
          else if m = 0xFB then s.s_tag <- tag_endbr32;
        q
    in
    need q 0 limit;
    s.s_len <- q - off;
    (* Resolve direct and RIP-relative payloads against the end address. *)
    let tag = s.s_tag in
    if tag >= tag_call_direct && tag <= tag_jcc_direct then s.s_target <- base + q + s.s_target
    else if t.rip_relative && (s.s_has_target || tag = tag_addr_ref) then
      s.s_target <- base + q + s.s_target;
    true
  with Scan_fail -> false

let scan arch s code ~limit ~base ~off =
  if limit < 0 || limit > String.length code then
    invalid_arg "Decoder.scan: limit out of range";
  off >= 0 && off < limit && core (tables arch) s code ~limit ~base ~off

let[@inline] scratch_flags s =
  s.s_tag
  lor (if s.s_notrack then flag_notrack else 0)
  lor if s.s_has_target then flag_goto else 0

let ins_of_flags ~addr ~len ~flags ~target =
  let tag = flags land 15 in
  let goto () = if flags land flag_goto <> 0 then Some target else None in
  let kind =
    if tag = tag_other then Other
    else if tag = tag_endbr64 then Endbr64
    else if tag = tag_endbr32 then Endbr32
    else if tag = tag_call_direct then Call_direct target
    else if tag = tag_jmp_direct then Jmp_direct target
    else if tag = tag_jcc_direct then Jcc_direct target
    else if tag = tag_call_indirect then Call_indirect { goto = goto () }
    else if tag = tag_jmp_indirect then
      Jmp_indirect { notrack = flags land flag_notrack <> 0; goto = goto () }
    else if tag = tag_ret then Ret
    else if tag = tag_halt then Halt
    else Addr_ref target
  in
  { addr; len; kind }

let scratch_ins (s : scratch) =
  ins_of_flags ~addr:s.s_addr ~len:s.s_len ~flags:(scratch_flags s) ~target:s.s_target

let decode arch code ~base ~off =
  let s = scratch () in
  if scan arch s code ~limit:(String.length code) ~base ~off then Ok (scratch_ins s)
  else if off < 0 || off >= String.length code then Error "offset out of range"
  else Error "undecodable instruction"

let kind_to_string = function
  | Endbr64 -> "endbr64"
  | Endbr32 -> "endbr32"
  | Call_direct t -> Printf.sprintf "call 0x%x" t
  | Jmp_direct t -> Printf.sprintf "jmp 0x%x" t
  | Jcc_direct t -> Printf.sprintf "jcc 0x%x" t
  | Call_indirect { goto = Some g } -> Printf.sprintf "call [0x%x]" g
  | Call_indirect { goto = None } -> "call <ind>"
  | Jmp_indirect { notrack; goto = Some g } ->
    Printf.sprintf "%sjmp [0x%x]" (if notrack then "notrack " else "") g
  | Jmp_indirect { notrack; goto = None } ->
    Printf.sprintf "%sjmp <ind>" (if notrack then "notrack " else "")
  | Ret -> "ret"
  | Halt -> "hlt"
  | Addr_ref a -> Printf.sprintf "addr-ref 0x%x" a
  | Other -> "other"

(* ---- The decode loop -------------------------------------------------- *)

module Ibuf = Cet_util.Ibuf
module A1 = Bigarray.Array1

type stream = { addrs : int array; targets : int array; lens : Bytes.t; tags : Bytes.t }

(* The stream sink: one off-heap int array per domain, reached through
   DLS as [Deadline] and the telemetry registry keep their state.  Kept
   instruction [i] takes entry [2i], its position in the walked string
   (below 2^46, as any string in memory is), length and flag byte packed
   as [pos lsl 16 lor len lsl 8 lor flags], and entry [2i + 1], its
   target.  A walk makes room for as many instructions as its region has
   bytes, which bounds what it keeps (an instruction is at least one
   byte, and kept ones do not overlap), so the loop writes unchecked and
   no walk grows the buffer.  Only the pages a walk writes become
   resident, 16 bytes per instruction, and the GC neither scans nor
   paces on them.  Walks on one domain never nest: the loop calls
   nothing but the deadline poll. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

(* The buffer is 32 MiB at least, so it is always a mapping of its own:
   glibc serves a smaller request from a malloc arena once it has raised
   its mmap threshold, which it does, up to 32 MiB, as large blocks are
   freed, and a long-lived block in an arena keeps the memory freed
   around it resident.  Untouched, the reservation costs no memory. *)
let min_entries = (32 lsl 20) / 8

let buffer n = A1.create Bigarray.int Bigarray.c_layout n
let no_buffer = buffer 0
let buffer_key = Domain.DLS.new_key (fun () -> no_buffer)

let reserve len =
  let b = Domain.DLS.get buffer_key in
  if A1.dim b >= 2 * len then b
  else begin
    let b = buffer (max (2 * len) min_entries) in
    Domain.DLS.set buffer_key b;
    b
  end

(* The first [n] instructions, unpacked onto the heap: the stream never
   aliases the buffer the next walk overwrites. *)
let copy_out (b : ints) ~base n =
  let addrs = Array.make n 0 and targets = Array.make n 0 in
  let lens = Bytes.create n and tags = Bytes.create n in
  for i = 0 to n - 1 do
    let e = A1.unsafe_get b (2 * i) in
    Array.unsafe_set addrs i (base + (e lsr 16));
    Bytes.unsafe_set lens i (Char.unsafe_chr ((e lsr 8) land 0xFF));
    Bytes.unsafe_set tags i (Char.unsafe_chr (e land 0xFF));
    Array.unsafe_set targets i (A1.unsafe_get b ((2 * i) + 1))
  done;
  { addrs; targets; lens; tags }

let[@inline] push (b : ints) n ~off s =
  A1.unsafe_set b (2 * n) ((off lsl 16) lor (s.s_len lsl 8) lor scratch_flags s);
  A1.unsafe_set b ((2 * n) + 1) s.s_target

type harvest = {
  eb : Ibuf.t;
  cs : Ibuf.t;
  cr : Ibuf.t;
  ct : Ibuf.t;
  js : Ibuf.t;
  jt : Ibuf.t;
}

let harvest () =
  {
    eb = Ibuf.create ();
    cs = Ibuf.create ();
    cr = Ibuf.create ();
    ct = Ibuf.create ();
    js = Ibuf.create ();
    jt = Ibuf.create ();
  }

(* {!Ibuf.push} with its fast path inlined: the harvest pushes on a
   tenth of the instructions, and a call into another module per push
   cost the scan a tenth of its throughput. *)
let[@inline] ipush (b : Ibuf.t) v =
  if b.len = Array.length b.arr then Ibuf.push b v
  else begin
    Array.unsafe_set b.arr b.len v;
    b.len <- b.len + 1
  end

(* Classification on the int tag, three compares: direct calls (with
   their return addresses and targets), in-range direct jumps, and the
   architecture's end-branches. *)
let[@inline] reap h s ~want_endbr ~lo ~hi =
  let tag = s.s_tag in
  if tag = tag_call_direct then begin
    let addr = s.s_addr in
    ipush h.cs addr;
    ipush h.cr (addr + s.s_len);
    ipush h.ct s.s_target
  end
  else if tag = tag_jmp_direct then begin
    let target = s.s_target in
    if target >= lo && target < hi then begin
      ipush h.js s.s_addr;
      ipush h.jt target
    end
  end
  else if tag = want_endbr then ipush h.eb s.s_addr

(* Index of the first anchor at [i] or later lying strictly after [off]. *)
let rec seek anchors pos off i =
  if i < Array.length anchors && pos + Array.unsafe_get anchors i <= off then
    seek anchors pos off (i + 1)
  else i

(* Deadline polling cadence: one wall-clock read per 4096 steps keeps the
   overhead unmeasurable while bounding overshoot to a few microseconds of
   decoding. *)
let deadline_mask = 4095

type walked = { resync_errors : int; insns : int; stream : stream option }

(* The anchored walk is the original trust-tracking loop (kept as a test
   oracle) with its untrusted runs skipped: an untrusted decode can never
   move past an anchor (an instruction that would straddle one jumps *to*
   it, a failure advances one byte), and the instructions it decodes are
   withheld, so the walk jumps straight to the anchor.  [next] is the
   first anchor strictly after [off] — [limit] when there is none, and
   always in the plain walk, where nothing can straddle it.  The region
   check is what makes [core]'s contract hold: [off] stays in
   [pos, limit) and [limit <= String.length buf].  The stream sink writes
   kept instruction [i] at entries [2i] and [2i + 1] of this domain's
   buffer, which has room for [len] instructions before the loop starts. *)
let walk arch ~phase ~anchors buf ~pos ~len ~vaddr ~stream ~harvest =
  if pos < 0 || len < 0 || pos > String.length buf - len then
    invalid_arg "Decoder.walk: region out of range";
  let b = if stream then reserve len else no_buffer in
  let t = tables arch in
  let limit = pos + len in
  let base = vaddr - pos in
  let lo = vaddr and hi = vaddr + len in
  let want_endbr = match arch with Arch.X64 -> tag_endbr64 | Arch.X86 -> tag_endbr32 in
  let anchored, anchors = match anchors with Some a -> (true, a) | None -> (false, [||]) in
  let nanchors = Array.length anchors in
  let s = scratch () in
  let errors = ref 0 and insns = ref 0 and tick = ref 0 in
  let off = ref pos in
  let desynced = ref false in
  let ai = ref (seek anchors pos pos 0) in
  let next = ref (if !ai < nanchors then pos + anchors.(!ai) else limit) in
  while !off < limit do
    incr tick;
    if !tick land deadline_mask = 0 then Cet_util.Deadline.check phase;
    if core t s buf ~limit ~base ~off:!off then begin
      let stop = !off + s.s_len in
      if stop > !next then begin
        (* Straddles an end-branch marker: desynchronised (inline data) —
           one resync event, restart at the anchor. *)
        incr errors;
        off := !next
      end
      else begin
        desynced := false;
        (match harvest with Some h -> reap h s ~want_endbr ~lo ~hi | None -> ());
        if stream then push b !insns ~off:!off s;
        incr insns;
        off := stop
      end
    end
    else begin
      (* [resync_errors] counts desynchronisation events, not undecodable
         bytes: a 40-byte inline-data run the plain walk steps through is
         one event. *)
      if anchored || not !desynced then incr errors;
      desynced := true;
      off := if anchored then !next else !off + 1
    end;
    if !off >= !next && !ai < nanchors then begin
      ai := seek anchors pos !off !ai;
      next := if !ai < nanchors then pos + anchors.(!ai) else limit
    end
  done;
  {
    resync_errors = !errors;
    insns = !insns;
    stream = (if stream then Some (copy_out b ~base !insns) else None);
  }
