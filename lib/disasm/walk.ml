module Arch = Cet_x86.Arch
module Decoder = Cet_x86.Decoder
module Ibuf = Cet_util.Ibuf

type stream = {
  mutable addrs : int array;
  mutable targets : int array;
  mutable lens : Bytes.t;
  mutable tags : Bytes.t;
  mutable count : int;
}

let stream n =
  {
    addrs = Array.make n 0;
    targets = Array.make n 0;
    lens = Bytes.create n;
    tags = Bytes.create n;
    count = 0;
  }

(* Average x86 instruction length is ~4 bytes; starting near size/4 makes
   a doubling copy rare without over-reserving tiny regions. *)
let capacity_hint size = (size / 4) + 16

let grow st =
  let cap = (2 * Array.length st.addrs) + 16 in
  let ints a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 st.count;
    b
  in
  let bytes a =
    let b = Bytes.create cap in
    Bytes.blit a 0 b 0 st.count;
    b
  in
  st.addrs <- ints st.addrs;
  st.targets <- ints st.targets;
  st.lens <- bytes st.lens;
  st.tags <- bytes st.tags

let trim st =
  let n = st.count in
  if n = Array.length st.addrs then st
  else
    {
      addrs = Array.sub st.addrs 0 n;
      targets = Array.sub st.targets 0 n;
      lens = Bytes.sub st.lens 0 n;
      tags = Bytes.sub st.tags 0 n;
      count = n;
    }

let[@inline] push st s =
  let n = st.count in
  if n = Array.length st.addrs then grow st;
  Array.unsafe_set st.addrs n (Decoder.scratch_addr s);
  Array.unsafe_set st.targets n (Decoder.scratch_target s);
  Bytes.unsafe_set st.lens n (Char.unsafe_chr (Decoder.scratch_len s));
  Bytes.unsafe_set st.tags n (Char.unsafe_chr (Decoder.scratch_flags s));
  st.count <- n + 1

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
  let tag = Decoder.scratch_tag s in
  if tag = Decoder.tag_call_direct then begin
    let addr = Decoder.scratch_addr s in
    ipush h.cs addr;
    ipush h.cr (addr + Decoder.scratch_len s);
    ipush h.ct (Decoder.scratch_target s)
  end
  else if tag = Decoder.tag_jmp_direct then begin
    let target = Decoder.scratch_target s in
    if target >= lo && target < hi then begin
      ipush h.js (Decoder.scratch_addr s);
      ipush h.jt target
    end
  end
  else if tag = want_endbr then ipush h.eb (Decoder.scratch_addr s)

(* Index of the first anchor at [i] or later lying strictly after [off]. *)
let rec seek anchors pos off i =
  if i < Array.length anchors && pos + Array.unsafe_get anchors i <= off then
    seek anchors pos off (i + 1)
  else i

(* Deadline polling cadence: one wall-clock read per 4096 steps keeps the
   overhead unmeasurable while bounding overshoot to a few microseconds of
   decoding. *)
let deadline_mask = 4095

(* The anchored walk is the original trust-tracking loop (kept as a test
   oracle) with its untrusted runs skipped: an untrusted decode can never
   move past an anchor (an instruction that would straddle one jumps *to*
   it, a failure advances one byte), and the instructions it decodes are
   withheld, so the walk jumps straight to the anchor.  [next] is the
   first anchor strictly after [off] — [limit] when there is none, and
   always in the plain walk, where nothing can straddle it. *)
let run arch ~phase ~anchors buf ~pos ~len ~vaddr ~stream ~harvest =
  let limit = pos + len in
  let base = vaddr - pos in
  let lo = vaddr and hi = vaddr + len in
  let want_endbr =
    match arch with Arch.X64 -> Decoder.tag_endbr64 | Arch.X86 -> Decoder.tag_endbr32
  in
  let anchored, anchors = match anchors with Some a -> (true, a) | None -> (false, [||]) in
  let nanchors = Array.length anchors in
  let s = Decoder.scratch () in
  let errors = ref 0 and insns = ref 0 and tick = ref 0 in
  let off = ref pos in
  let desynced = ref false in
  let ai = ref (seek anchors pos pos 0) in
  let next = ref (if !ai < nanchors then pos + anchors.(!ai) else limit) in
  while !off < limit do
    incr tick;
    if !tick land deadline_mask = 0 then Cet_util.Deadline.check phase;
    if Decoder.scan arch s buf ~limit ~base ~off:!off then begin
      let stop = !off + Decoder.scratch_len s in
      if stop > !next then begin
        (* Straddles an end-branch marker: desynchronised (inline data) —
           one resync event, restart at the anchor. *)
        incr errors;
        off := !next
      end
      else begin
        desynced := false;
        incr insns;
        (match harvest with Some h -> reap h s ~want_endbr ~lo ~hi | None -> ());
        (match stream with Some st -> push st s | None -> ());
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
  (!errors, !insns)
