module Linear = Cet_disasm.Linear
module Decoder = Cet_x86.Decoder
module Arch = Cet_x86.Arch
module Ibuf = Cet_util.Ibuf

type explored = { e_functions : int list; e_visited : Bytes.t }

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The one traversal loop behind [explore] and [extend]: recursive
   descent over the sweep's instruction stream, by instruction index,
   marking [visited] in place.  An instruction is marked when it is first
   reached and pushed on the work stack, so each is expanded once, and
   one that [visited] already marks is not walked again.  Fall-through is
   the next index whenever the stream is contiguous there (a gap means no
   instruction starts at the fall-through address); a branch or call
   target takes one [Linear.index_of] (the stream's bucket index).  The
   stack and the function buffer are local arrays and no closure captures
   them, so that lookup is a step's only call into another module.  The
   result is a reachability closure: the visit order does not show in
   it, and resuming one adds exactly what the new roots reach.  [known]
   (sorted, distinct) joins the functions found. *)
let traverse (sw : Linear.t) visited ~known ~roots =
  let addrs = sw.Linear.addrs and lens = sw.Linear.lens and tags = sw.Linear.tags in
  let targets = sw.Linear.targets in
  let base = sw.Linear.base and size = sw.Linear.size in
  let n = Array.length addrs in
  let stack = ref (Array.make 1024 0) and sp = ref 0 in
  let funcs = ref (Array.make 1024 0) and nf = ref 0 in
  (* A root is a function wherever it lands in the region; the
     instruction starting there, if any, is walked. *)
  let pending = ref roots and more = ref true in
  while !more do
    match !pending with
    | [] -> more := false
    | a :: rest ->
      pending := rest;
      if a >= base && a - base < size then begin
        if !nf = Array.length !funcs then funcs := grow !funcs;
        Array.unsafe_set !funcs !nf a;
        incr nf;
        let k = Linear.index_of sw a in
        if k >= 0 && Bytes.unsafe_get visited k = '\000' then begin
          Bytes.unsafe_set visited k '\001';
          if !sp = Array.length !stack then stack := grow !stack;
          Array.unsafe_set !stack !sp k;
          incr sp
        end
      end
  done;
  let ret = Decoder.tag_ret and halt = Decoder.tag_halt and jmp_ind = Decoder.tag_jmp_indirect in
  let jmp = Decoder.tag_jmp_direct and jcc = Decoder.tag_jcc_direct in
  let call = Decoder.tag_call_direct in
  while !sp > 0 do
    decr sp;
    let k = Array.unsafe_get !stack !sp in
    let tag = Char.code (Bytes.unsafe_get tags k) land 15 in
    if tag <> ret && tag <> halt && tag <> jmp_ind then begin
      (* The direct target's instruction (a call target is a function
         too), then the fall-through one; -1 for none. *)
      let t =
        if tag = jmp || tag = jcc || tag = call then begin
          let a = Array.unsafe_get targets k in
          if tag = call && a >= base && a - base < size then begin
            if !nf = Array.length !funcs then funcs := grow !funcs;
            Array.unsafe_set !funcs !nf a;
            incr nf
          end;
          Linear.index_of sw a
        end
        else -1
      in
      let f =
        if tag = jmp || k + 1 >= n then -1
        else if
          Array.unsafe_get addrs (k + 1)
          = Array.unsafe_get addrs k + Char.code (Bytes.unsafe_get lens k)
        then k + 1
        else -1
      in
      if !sp + 2 > Array.length !stack then stack := grow !stack;
      if t >= 0 && Bytes.unsafe_get visited t = '\000' then begin
        Bytes.unsafe_set visited t '\001';
        Array.unsafe_set !stack !sp t;
        incr sp
      end;
      if f >= 0 && Bytes.unsafe_get visited f = '\000' then begin
        Bytes.unsafe_set visited f '\001';
        Array.unsafe_set !stack !sp f;
        incr sp
      end
    end
  done;
  let found = Linear.sort_dedup_ints (Array.sub !funcs 0 !nf) in
  let functions =
    match known with [] -> found | _ -> Linear.merge_sorted_dedup (Array.of_list known) found
  in
  { e_functions = Array.to_list functions; e_visited = visited }

let explore (sw : Linear.t) ~roots =
  traverse sw (Bytes.make (Linear.length sw) '\000') ~known:[] ~roots

let extend (sw : Linear.t) ex ~roots =
  if Bytes.length ex.e_visited <> Linear.length sw then
    invalid_arg "Common.extend: the visited map does not match the stream";
  traverse sw ex.e_visited ~known:ex.e_functions ~roots

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
   the visited byte (before any code byte is read), the first byte of
   every signature, the prologue bytes, and only then the [known] and
   [suppress] lookups, which the rare signature matches alone reach. *)
let prologue_scan (sw : Linear.t) ~known ~aggressive ?visited ?(suppress = []) () =
  let addrs = sw.Linear.addrs in
  let n = Array.length addrs in
  let visited =
    match visited with
    | None -> Bytes.make n '\000'
    | Some v ->
      if Bytes.length v < n then
        invalid_arg "Common.prologue_scan: the visited map is shorter than the stream";
      v
  in
  let known = Linear.sort_dedup_ints (Array.of_list known) in
  (* Lenient: extents recovered from a corrupt .eh_frame can overlap, and
     a suppression table that is merely smaller must not abort the scan. *)
  let suppress = Cet_util.Itable.of_list_lenient suppress in
  let hits = Ibuf.create () in
  for idx = 0 to n - 1 do
    if Bytes.unsafe_get visited idx = '\000' then begin
      let a = Array.unsafe_get addrs idx in
      let off = a - sw.base in
      let b0 = byte sw off in
      if
        (b0 = 0x55 || b0 = 0x53 || b0 = 0x48 || b0 = 0x83)
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
