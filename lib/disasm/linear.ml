module Arch = Cet_x86.Arch
module Decoder = Cet_x86.Decoder

type t = {
  arch : Arch.t;
  base : int;
  size : int;
  code : string;
  insns : Decoder.ins array;
  resync_errors : int;
}

(* Deadline polling cadence: one wall-clock read per 4096 sweep steps keeps
   the overhead unmeasurable while bounding overshoot to a few microseconds
   of decoding. *)
let deadline_mask = 4095

(* Growable instruction buffer: the sweep appends into a doubling array and
   the result is one exact-size copy — no per-instruction cons cells, no
   List.rev, no Array.of_list.  [dummy_ins] only pads the unused tail. *)
let dummy_ins : Decoder.ins = { addr = 0; len = 0; kind = Decoder.Other }

type buf = { mutable arr : Decoder.ins array; mutable len : int }

let buf_create hint = { arr = Array.make (max 16 hint) dummy_ins; len = 0 }

let buf_push b ins =
  if b.len = Array.length b.arr then begin
    let bigger = Array.make (2 * b.len) dummy_ins in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- ins;
  b.len <- b.len + 1

let buf_contents b = Array.sub b.arr 0 b.len

(* Average x86 instruction length is ~4 bytes; starting the buffer near
   size/4 makes a doubling copy rare without over-reserving tiny regions. *)
let buf_hint size = (size / 4) + 16

let sweep_impl arch base code =
  let size = String.length code in
  let insns = buf_create (buf_hint size) in
  let errors = ref 0 in
  let off = ref 0 in
  let tick = ref 0 in
  (* [resync_errors] counts desynchronisation events, not undecodable
     bytes: a 40-byte inline-data run the sweep has to skip through is one
     resynchronisation, so the counter tracks how often the sweep lost the
     instruction stream. *)
  let desynced = ref false in
  let s = Decoder.scratch () in
  while !off < size do
    incr tick;
    if !tick land deadline_mask = 0 then Cet_util.Deadline.check "disasm.sweep";
    if Decoder.scan arch s code ~limit:size ~base ~off:!off then begin
      desynced := false;
      buf_push insns (Decoder.scratch_ins s);
      off := !off + Decoder.scratch_len s
    end
    else begin
      if not !desynced then incr errors;
      desynced := true;
      incr off
    end
  done;
  { arch; base; size; code; insns = buf_contents insns; resync_errors = !errors }

(* DISASSEMBLE is the hot phase; the disabled-telemetry path must stay
   allocation-free, hence the guard instead of a bare [Span.with_]. *)
let sweep arch ?(base = 0) code =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"disasm.sweep" (fun () -> sweep_impl arch base code)
  else sweep_impl arch base code

let sweep_text reader =
  match Cet_elf.Reader.find_section reader ".text" with
  | None -> invalid_arg "Linear.sweep_text: no .text section"
  | Some s -> sweep (Cet_elf.Reader.arch reader) ~base:s.vaddr s.data

(* Offsets of every end-branch byte pattern: F3 0F 1E FA/FB.  The pattern
   cannot appear inside another instruction's opcode bytes the compilers
   emit, and a false hit inside immediate data merely adds a resync point. *)
let anchor_offsets = Prescan.anchor_offsets

(* Anchored sweep: scan-core decode plus prescan-driven resynchronisation.
   The original trust-tracking loop (kept as a test oracle) decodes every
   byte position of an untrusted run while withholding the (garbage)
   instructions and counting no further errors — observationally that
   only moves [off] to the next anchor.  An untrusted decode can never
   skip past an anchor (an Ok that would straddle one jumps *to* it, an
   error advances one byte), so this loop jumps straight there:
   inline-data runs cost a binary search instead of a decode per byte,
   and [trusted] is always true at the top of the loop, which is why the
   flag itself has disappeared. *)
let sweep_anchored_impl arch base code =
  let size = String.length code in
  let anchors = Prescan.anchor_offsets arch code in
  let nanchors = Array.length anchors in
  let anchor_lower_bound off =
    let lo = ref 0 and hi = ref nanchors in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if anchors.(mid) < off then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* First anchor strictly after [off], or [size] when none. *)
  let next_anchor_or_end off =
    let i = anchor_lower_bound (off + 1) in
    if i < nanchors then anchors.(i) else size
  in
  let insns = buf_create (buf_hint size) in
  let errors = ref 0 in
  let off = ref 0 in
  let tick = ref 0 in
  let s = Decoder.scratch () in
  while !off < size do
    incr tick;
    if !tick land deadline_mask = 0 then Cet_util.Deadline.check "disasm.sweep_anchored";
    if Decoder.scan arch s code ~limit:size ~base ~off:!off then begin
      let stop = !off + Decoder.scratch_len s in
      let a = next_anchor_or_end !off in
      if a < stop then begin
        (* Straddles an end-branch marker: desynchronised (inline data) —
           one resync event, restart at the anchor. *)
        incr errors;
        off := a
      end
      else begin
        buf_push insns (Decoder.scratch_ins s);
        off := stop
      end
    end
    else begin
      incr errors;
      off := next_anchor_or_end !off
    end
  done;
  { arch; base; size; code; insns = buf_contents insns; resync_errors = !errors }

let sweep_anchored arch ?(base = 0) code =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"disasm.sweep_anchored" (fun () ->
        sweep_anchored_impl arch base code)
  else sweep_anchored_impl arch base code

let sweep_text_anchored reader =
  match Cet_elf.Reader.find_section reader ".text" with
  | None -> invalid_arg "Linear.sweep_text_anchored: no .text section"
  | Some s -> sweep_anchored (Cet_elf.Reader.arch reader) ~base:s.vaddr s.data

let in_range t addr = addr >= t.base && addr < t.base + t.size

let sorted_distinct addrs = List.sort_uniq Int.compare addrs

(* ---- Array-based index extraction ----------------------------------- *)

(* One pass over the instruction stream into a doubling int buffer — the
   allocation shape every derived index shares.  [f] returns -1 to skip
   (virtual addresses are non-negative: base + offset into a section). *)
let extract_ints (t : t) (f : Decoder.ins -> int) =
  let arr = ref (Array.make 64 0) in
  let len = ref 0 in
  let push v =
    if !len = Array.length !arr then begin
      let bigger = Array.make (2 * !len) 0 in
      Array.blit !arr 0 bigger 0 !len;
      arr := bigger
    end;
    !arr.(!len) <- v;
    incr len
  in
  Array.iter
    (fun ins ->
      let v = f ins in
      if v >= 0 then push v)
    t.insns;
  Array.sub !arr 0 !len

(* Monomorphic bottom-up merge sort: insertion-sorted runs of 16, then
   merge passes ping-ponging between [a] and one scratch array.  Worst
   case n log n, and no comparison closure — [Array.sort Int.compare]
   (a heap sort through an indirect call) cost several times more on
   the index builds' few-thousand-element target arrays. *)
let sort_run = 16

let sort_ints (a : int array) =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + sort_run) in
    for i = !lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done;
    lo := hi
  done;
  if n > sort_run then begin
    let src = ref a and dst = ref (Array.make n 0) in
    let width = ref sort_run in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (mid + !width) in
        let i = ref !lo and j = ref mid and k = ref !lo in
        while !i < mid && !j < hi do
          let x = s.(!i) and y = s.(!j) in
          if x <= y then begin
            d.(!k) <- x;
            incr i
          end
          else begin
            d.(!k) <- y;
            incr j
          end;
          incr k
        done;
        Array.blit s !i d !k (mid - !i);
        Array.blit s !j d (!k + mid - !i) (hi - !j);
        lo := hi
      done;
      src := d;
      dst := s;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* In-place sort + dedup of an address array. *)
let sort_dedup_ints a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    sort_ints a;
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

(* Union of two sorted distinct address arrays, sorted distinct. *)
let merge_sorted_dedup (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and w = ref 0 in
    let push v =
      if !w = 0 || out.(!w - 1) <> v then begin
        out.(!w) <- v;
        incr w
      end
    in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x <= y then begin
        push x;
        incr i;
        if x = y then incr j
      end
      else begin
        push y;
        incr j
      end
    done;
    while !i < na do
      push a.(!i);
      incr i
    done;
    while !j < nb do
      push b.(!j);
      incr j
    done;
    if !w = na + nb then out else Array.sub out 0 !w
  end

(* Membership in a sorted address array. *)
let mem_sorted (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = v

let endbr_array t =
  let want = match t.arch with Arch.X64 -> Decoder.Endbr64 | Arch.X86 -> Decoder.Endbr32 in
  extract_ints t (fun i -> if i.kind = want then i.addr else -1)

let call_target_array t =
  sort_dedup_ints
    (extract_ints t (fun i ->
         match i.kind with
         | Decoder.Call_direct target when in_range t target -> target
         | _ -> -1))

let jmp_target_array t =
  sort_dedup_ints
    (extract_ints t (fun i ->
         match i.kind with
         | Decoder.Jmp_direct target when in_range t target -> target
         | _ -> -1))

let endbr_addrs t = Array.to_list (endbr_array t)
let call_targets t = Array.to_list (call_target_array t)
let jmp_targets t = Array.to_list (jmp_target_array t)

let call_sites t =
  List.rev
    (Array.fold_left
       (fun acc (i : Decoder.ins) ->
         match i.kind with
         | Decoder.Call_direct target -> (i.addr, i.addr + i.len, target) :: acc
         | _ -> acc)
       [] t.insns)

let jmp_refs t =
  List.rev
    (Array.fold_left
       (fun acc (i : Decoder.ins) ->
         match i.kind with
         | Decoder.Jmp_direct target when in_range t target -> (i.addr, target) :: acc
         | _ -> acc)
       [] t.insns)

(* Index of the first instruction at or after [addr]. *)
let first_index_at t addr =
  let insns = t.insns in
  let lo = ref 0 and hi = ref (Array.length insns) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if insns.(mid).Decoder.addr < addr then lo := mid + 1 else hi := mid
  done;
  !lo

let index_of t addr =
  let i = first_index_at t addr in
  if i < Array.length t.insns && t.insns.(i).Decoder.addr = addr then Some i else None

let insn_at t addr =
  match index_of t addr with Some i -> Some t.insns.(i) | None -> None
