module Linear = Cet_disasm.Linear
module Decoder = Cet_x86.Decoder
module Arch = Cet_x86.Arch
module Ibuf = Cet_util.Ibuf

type explored = { e_functions : int list; e_visited : Bytes.t }

(* Recursive descent over the sweep's instruction stream, by instruction
   index.  An instruction is marked when it is first reached and pushed
   on an int stack, so each is expanded once; fall-through is the next
   index whenever the stream is contiguous there (a gap means no
   instruction starts at the fall-through address), and only branch and
   call targets take a binary search.  The result is a reachability
   closure, so the visit order does not show in it. *)
let explore (sw : Linear.t) ~roots =
  let addrs = sw.Linear.addrs and lens = sw.Linear.lens in
  let tags = sw.Linear.tags and targets = sw.Linear.targets in
  let n = Array.length addrs in
  let visited = Bytes.make n '\000' in
  let functions = Ibuf.create () in
  let stack = Ibuf.create () in
  let reach k =
    if k >= 0 && Bytes.unsafe_get visited k = '\000' then begin
      Bytes.unsafe_set visited k '\001';
      Ibuf.push stack k
    end
  in
  let reach_addr a = if Linear.in_range sw a then reach (Linear.index_of sw a) in
  let fall k =
    let k' = k + 1 in
    if
      k' < n
      && Array.unsafe_get addrs k'
         = Array.unsafe_get addrs k + Char.code (Bytes.unsafe_get lens k)
    then reach k'
  in
  let root a =
    if Linear.in_range sw a then begin
      Ibuf.push functions a;
      reach (Linear.index_of sw a)
    end
  in
  List.iter root roots;
  let ret = Decoder.tag_ret and halt = Decoder.tag_halt and jmp_ind = Decoder.tag_jmp_indirect in
  let jmp = Decoder.tag_jmp_direct and jcc = Decoder.tag_jcc_direct in
  let call = Decoder.tag_call_direct in
  while Ibuf.length stack > 0 do
    let k = Ibuf.pop stack in
    let tag = Char.code (Bytes.unsafe_get tags k) land 15 in
    if tag = ret || tag = halt || tag = jmp_ind then ()
    else if tag = jmp then reach_addr (Array.unsafe_get targets k)
    else if tag = jcc then begin
      reach_addr (Array.unsafe_get targets k);
      fall k
    end
    else if tag = call then begin
      root (Array.unsafe_get targets k);
      fall k
    end
    else fall k
  done;
  {
    e_functions = Array.to_list (Linear.sort_dedup_ints (Ibuf.contents functions));
    e_visited = visited;
  }

(* The byte at [off] of the swept region, or -1 outside it. *)
let[@inline] byte_at code size off =
  if off < 0 || off >= size then -1 else Char.code (String.unsafe_get code off)

let byte (sw : Linear.t) off = byte_at sw.code sw.size off

let entry_main_root (sw : Linear.t) ~entry =
  let n = Linear.length sw in
  let rec scan k budget =
    if budget = 0 || k < 0 then None
    else
      let tag = Linear.tag sw k and t = Linear.target sw k in
      if tag = Decoder.tag_addr_ref && Linear.in_range sw t then Some t
      else if
        tag = Decoder.tag_ret || tag = Decoder.tag_halt || tag = Decoder.tag_jmp_direct
        || tag = Decoder.tag_jmp_indirect
      then None
      else
        let next = Linear.addr sw k + Linear.len sw k in
        scan (if k + 1 < n && Linear.addr sw (k + 1) = next then k + 1 else -1) (budget - 1)
  in
  scan (Linear.index_of sw entry) 12

(* Does the byte sequence at [off] look like a prologue? *)
let prologue_at (sw : Linear.t) off ~aggressive =
  let b0 = byte sw off and b1 = byte sw (off + 1) and b2 = byte sw (off + 2) in
  let x64 = sw.arch = Arch.X64 in
  let push_rbp_mov =
    b0 = 0x55
    &&
    if x64 then b1 = 0x48 && b2 = 0x89 && byte sw (off + 3) = 0xE5
    else b1 = 0x89 && b2 = 0xE5
  in
  if push_rbp_mov then true
  else if not aggressive then false
  else
    b0 = 0x53 || b0 = 0x55
    || (x64 && b0 = 0x48 && b1 = 0x83 && b2 = 0xEC)
    || ((not x64) && b0 = 0x83 && b1 = 0xEC)

(* Padding / terminator bytes that typically precede a fresh function. *)
let boundary_byte b = b = 0xC3 || b = 0xC2 || b = 0xCC || b = 0x90 || b = 0x00 || b = 0xF4

(* An end-branch right before [off]?  Legacy scanners read it as a NOP. *)
let endbr_before (sw : Linear.t) off =
  off >= 4
  && byte sw (off - 4) = 0xF3
  && byte sw (off - 3) = 0x0F
  && byte sw (off - 2) = 0x1E
  && (byte sw (off - 1) = 0xFA || byte sw (off - 1) = 0xFB)

(* The skip conditions are one pure conjunction, tested cheapest first:
   the visited byte, the first byte of every signature, the prologue
   bytes, and only then the [known] and [suppress] lookups, which the
   rare signature matches alone reach. *)
let prologue_scan (sw : Linear.t) ~known ~aggressive ?visited ?(suppress = []) () =
  let known = Linear.sort_dedup_ints (Array.of_list known) in
  (* Lenient: extents recovered from a corrupt .eh_frame can overlap, and
     a suppression table that is merely smaller must not abort the scan. *)
  let suppress =
    Cet_util.Itable.of_list_lenient (List.map (fun (lo, hi) -> (lo, hi, ())) suppress)
  in
  let addrs = sw.Linear.addrs in
  let hits = Ibuf.create () in
  for idx = 0 to Array.length addrs - 1 do
    let a = addrs.(idx) in
    let off = a - sw.base in
    let b0 = byte sw off in
    if
      (match visited with Some v -> Bytes.get v idx = '\000' | None -> true)
      && (b0 = 0x55 || b0 = 0x53 || b0 = 0x48 || b0 = 0x83)
      && prologue_at sw off ~aggressive
      && (not (Linear.mem_sorted known a))
      && not (Cet_util.Itable.mem suppress a)
    then begin
      let after_endbr = endbr_before sw off in
      let after_boundary = off = 0 || boundary_byte (byte sw (off - 1)) in
      let aligned = a land 15 = 0 in
      (* Conservative scanners demand an aligned start (or the legacy-NOP
         end-branch anchor); aggressive ones take any post-boundary
         position. *)
      if (after_boundary || after_endbr) && (aggressive || aligned || after_endbr) then
        Ibuf.push hits a
    end
  done;
  Array.to_list (Linear.sort_dedup_ints (Ibuf.contents hits))

(* [stack_delta]'s height reset (frame release via leave); no real delta
   comes near it. *)
let leave = min_int

(* Byte-level stack delta of the instruction at [off], or [leave]. *)
let[@inline] stack_delta code size ~x64 ~ptr off =
  let b0 = byte_at code size off in
  let rex = x64 && b0 land 0xF0 = 0x40 in
  let off = if rex then off + 1 else off in
  let b0 = if rex then byte_at code size off else b0 in
  if b0 land 0xF8 = 0x50 then ptr (* push r *)
  else if b0 land 0xF8 = 0x58 then -ptr (* pop r *)
  else if b0 = 0x83 then begin
    let modrm = byte_at code size (off + 1) in
    if modrm = 0xEC then byte_at code size (off + 2) (* sub rsp, imm8 *)
    else if modrm = 0xC4 then -byte_at code size (off + 2) (* add rsp, imm8 *)
    else 0
  end
  else if b0 = 0xC9 then leave
  else 0

let stack_height_tail_targets (sw : Linear.t) ~extents =
  let addrs = sw.Linear.addrs and tags = sw.Linear.tags and targets = sw.Linear.targets in
  let code = sw.code and size = sw.size and base = sw.base in
  let x64 = sw.arch = Arch.X64 and ptr = Arch.ptr_size sw.arch in
  let jmp = Decoder.tag_jmp_direct in
  let found = Ibuf.create () in
  List.iter
    (fun (lo, hi) ->
      let height = ref 0 in
      for i = Linear.first_index_at sw lo to Linear.first_index_at sw hi - 1 do
        let d = stack_delta code size ~x64 ~ptr (Array.unsafe_get addrs i - base) in
        if d = leave then height := 0 else height := !height + d;
        if Char.code (Bytes.unsafe_get tags i) land 15 = jmp then begin
          let t = Array.unsafe_get targets i in
          if (t < lo || t >= hi) && Linear.in_range sw t && !height <= 0 then Ibuf.push found t
        end
      done)
    extents;
  Array.to_list (Linear.sort_dedup_ints (Ibuf.contents found))
