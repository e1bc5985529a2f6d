module Arch = Cet_x86.Arch
module Decoder = Cet_x86.Decoder

type t = {
  arch : Arch.t;
  base : int;
  size : int;
  code : string;
  addrs : int array;
  targets : int array;
  lens : Bytes.t;
  tags : Bytes.t;
  buckets : Bytes.t;
  resync_errors : int;
}

(* The bucket index: entry [b], a little-endian int32, is the index of
   the first instruction at or after [base + 16 * b]; one entry per 16
   bytes of the region.  An instruction is at least one byte long, so a
   lookup scans at most 16 addresses from its bucket's entry. *)
let bucket_shift = 4

let[@inline] bucket buckets b = Int32.to_int (Bytes.get_int32_le buckets (4 * b))

let buckets_of ~base ~size addrs =
  let n = Array.length addrs in
  let nb = (size + (1 lsl bucket_shift) - 1) lsr bucket_shift in
  let buckets = Bytes.create (4 * nb) in
  let i = ref 0 in
  for b = 0 to nb - 1 do
    let a = base + (b lsl bucket_shift) in
    while !i < n && Array.unsafe_get addrs !i < a do
      incr i
    done;
    Bytes.set_int32_le buckets (4 * b) (Int32.of_int !i)
  done;
  buckets

let of_stream arch ~base ~code (st : Decoder.stream) ~resync_errors =
  let size = String.length code and addrs = st.Decoder.addrs in
  let n = Array.length addrs in
  if n > 0 && (addrs.(0) < base || addrs.(n - 1) >= base + size) then
    invalid_arg "Linear.of_stream: an instruction address lies outside the region";
  {
    arch;
    base;
    size;
    code;
    addrs;
    targets = st.Decoder.targets;
    lens = st.Decoder.lens;
    tags = st.Decoder.tags;
    buckets = buckets_of ~base ~size addrs;
    resync_errors;
  }

let length t = Array.length t.addrs
let addr t i = t.addrs.(i)
let len t i = Char.code (Bytes.get t.lens i)
let tag t i = Char.code (Bytes.get t.tags i) land 15
let padding t i = Char.code (Bytes.get t.tags i) land Decoder.flag_padding <> 0
let target t i = t.targets.(i)

let ins t i =
  Decoder.ins_of_flags ~addr:t.addrs.(i) ~len:(len t i)
    ~flags:(Char.code (Bytes.get t.tags i))
    ~target:t.targets.(i)

let sweep_impl arch base code =
  let w =
    Decoder.walk arch ~phase:"disasm.sweep" ~anchors:None code ~pos:0
      ~len:(String.length code) ~vaddr:base ~stream:true ~harvest:None
  in
  of_stream arch ~base ~code (Option.get w.stream) ~resync_errors:w.resync_errors

(* DISASSEMBLE is the hot phase; the disabled-telemetry path must stay
   allocation-free, hence the guard instead of a bare [Span.with_]. *)
let sweep arch ?(base = 0) code =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"disasm.sweep" (fun () -> sweep_impl arch base code)
  else sweep_impl arch base code

let in_range t addr = addr >= t.base && addr < t.base + t.size

(* ---- Sorted address arrays ----------------------------------------- *)

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

(* Index of the first instruction at or after [addr]: its bucket's
   entry, then at most 15 steps.  Every address lies in the region
   ([of_stream] checks), so outside it the answer is an end. *)
let first_index_at t addr =
  let addrs = t.addrs in
  let n = Array.length addrs in
  let off = addr - t.base in
  if off <= 0 then 0
  else if off >= t.size then n
  else begin
    let i = ref (bucket t.buckets (off lsr bucket_shift)) in
    while !i < n && Array.unsafe_get addrs !i < addr do
      incr i
    done;
    !i
  end

let index_of t addr =
  let i = first_index_at t addr in
  if i < Array.length t.addrs && Array.unsafe_get t.addrs i = addr then i else -1
