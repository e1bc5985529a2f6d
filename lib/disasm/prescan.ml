(* SWAR end-branch prescan: find the ENDBR anchors 8 bytes at a time.

   The anchored sweep resynchronises at every end-branch byte pattern
   [F3 0F 1E FA/FB].  Instead of testing the pattern at every byte, the
   scan loads one 64-bit word per 8 bytes ([String.get_int64_ne]) and asks
   branchlessly whether it holds an [F3] at all, with the classic SWAR
   zero-byte test:

     zero_in(x) = (x - 0x0101..01) land (lnot x) land 0x8080..80

   applied to [x lxor broadcast(F3)].  Only the rare words that do hold
   one descend to the 4-byte pattern check.

   Everything here is straight-line [Int64] arithmetic kept inside the
   loop body so the compiler's local unboxing applies; the allocation
   budget is enforced by test_prescan.ml. *)

let ones = 0x0101010101010101L
let highs = 0x8080808080808080L

(* broadcast F3 = F3 * 0x0101..01 *)
let b_f3 = 0xF3F3F3F3F3F3F3F3L

(* [zero_in (x lxor broadcast b)] <> 0L iff some byte of [x] equals [b]. *)
let[@inline] zero_in x =
  Int64.logand (Int64.logand (Int64.sub x ones) (Int64.lognot x)) highs

let[@inline] has_byte w b = zero_in (Int64.logxor w b)

(* Check the 4-byte end-branch pattern at [i]; reads straddle word
   boundaries naturally because they go back to the string. *)
let[@inline] pattern_at code n want i =
  i + 4 <= n
  && String.unsafe_get code i = '\xF3'
  && String.unsafe_get code (i + 1) = '\x0F'
  && String.unsafe_get code (i + 2) = '\x1E'
  && String.unsafe_get code (i + 3) = want

(* Offsets of every end-branch byte pattern F3 0F 1E FA/FB, ascending.
   The word loop only descends to byte checks inside words that contain
   an [F3] at all; compiler-emitted code has few, so almost every word is
   dismissed with one load and a handful of ALU ops. *)
let anchor_offsets arch code =
  let want = match arch with Cet_x86.Arch.X64 -> '\xFA' | Cet_x86.Arch.X86 -> '\xFB' in
  let n = String.length code in
  let out = Cet_util.Ibuf.create ~capacity:16 () in
  let nwords = n lsr 3 in
  for w = 0 to nwords - 1 do
    let x = String.get_int64_ne code (w lsl 3) in
    if has_byte x b_f3 <> 0L then begin
      let base = w lsl 3 in
      let hi = min (base + 7) (n - 4) in
      for i = base to hi do
        if pattern_at code n want i then Cet_util.Ibuf.push out i
      done
    end
  done;
  (* Patterns starting in the sub-word tail (the word loop already covers
     starts below [8 * nwords], including ones whose suffix straddles into
     the tail). *)
  for i = nwords lsl 3 to n - 4 do
    if pattern_at code n want i then Cet_util.Ibuf.push out i
  done;
  Cet_util.Ibuf.contents out
