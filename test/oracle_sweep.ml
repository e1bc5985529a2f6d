(* The retired byte-at-a-time sweeps and the per-byte anchor scan, kept as
   differential-testing oracles for [Cet_disasm.Linear] and
   [Cet_disasm.Prescan].  They run on the retired decoder
   ([Oracle_decoder.decode]), one instruction record at a time, so a
   sweep-level test checks the production scan core and the production
   loops together.  Not memoised, not telemetry-instrumented.  The list
   extractors at the end are the index-build oracle for
   [Cet_disasm.Substrate.indexes]. *)

module Arch = Cet_x86.Arch
module Decoder = Cet_x86.Decoder
module Linear = Cet_disasm.Linear

(* A reference sweep: one record per instruction, the shape the stream
   had before it became parallel arrays. *)
type t = {
  arch : Arch.t;
  base : int;
  size : int;
  code : string;
  insns : Decoder.ins array;  (** in address order *)
  resync_errors : int;
}

let in_range t addr = addr >= t.base && addr < t.base + t.size

let finish arch base code insns errors =
  {
    arch;
    base;
    size = String.length code;
    code;
    insns = Array.of_list (List.rev insns);
    resync_errors = errors;
  }

(* {!Linear.sweep}: advance one byte on a decode failure, counting one
   resynchronisation per undecodable run. *)
let sweep_reference arch ?(base = 0) code =
  let size = String.length code in
  let insns = ref [] and errors = ref 0 and off = ref 0 and desynced = ref false in
  while !off < size do
    match Oracle_decoder.decode arch code ~base ~off:!off with
    | Ok ins ->
      desynced := false;
      insns := ins :: !insns;
      off := !off + ins.Oracle_decoder.len
    | Error _ ->
      if not !desynced then incr errors;
      desynced := true;
      incr off
  done;
  finish arch base code !insns !errors

(* Offsets of every end-branch byte pattern, testing every position. *)
let anchor_offsets_naive arch code =
  let want = match arch with Arch.X64 -> '\xfa' | Arch.X86 -> '\xfb' in
  let out = ref [] in
  let n = String.length code in
  for i = n - 4 downto 0 do
    if
      code.[i] = '\xf3' && code.[i + 1] = '\x0f' && code.[i + 2] = '\x1e'
      && code.[i + 3] = want
    then out := i :: !out
  done;
  Array.of_list !out

(* {!Linear.sweep_anchored} as the original trust-tracking loop: it
   decodes every byte position, even inside untrusted runs. *)
let sweep_anchored_reference arch ?(base = 0) code =
  let size = String.length code in
  (* Per-offset tables: is an anchor here, and the first anchor strictly
     after here (filled backwards). *)
  let is_anchor = Array.make (size + 1) false in
  Array.iter (fun a -> is_anchor.(a) <- true) (anchor_offsets_naive arch code);
  let after = Array.make (size + 1) None in
  for i = size - 1 downto 0 do
    after.(i) <- (if is_anchor.(i + 1) then Some (i + 1) else after.(i + 1))
  done;
  let next_anchor_after off = after.(off) in
  let insns = ref [] and errors = ref 0 and off = ref 0 in
  (* Once a decode fails, everything up to the next end-branch anchor is
     suspected inline data and its instructions are withheld. *)
  let trusted = ref true in
  while !off < size do
    if is_anchor.(!off) then trusted := true;
    match Oracle_decoder.decode arch code ~base ~off:!off with
    | Ok ins -> (
      let stop = !off + ins.Oracle_decoder.len in
      match next_anchor_after !off with
      | Some a when a < stop ->
        (* The instruction would swallow an end-branch marker: resync at
           the anchor; only a trusted->untrusted transition counts. *)
        if !trusted then incr errors;
        off := a;
        trusted := true
      | _ ->
        if !trusted then insns := ins :: !insns;
        off := stop)
    | Error _ ->
      if !trusted then incr errors;
      trusted := false;
      incr off
  done;
  finish arch base code !insns !errors

(* Both reference sweeps of an ELF image's [.text]. *)
let sweep_text_reference ?(anchored = false) reader =
  match Cet_elf.Reader.find_section reader ".text" with
  | None -> invalid_arg "Oracle_sweep.sweep_text_reference: no .text section"
  | Some s ->
    (if anchored then sweep_anchored_reference else sweep_reference)
      (Cet_elf.Reader.arch reader) ~base:s.vaddr s.data

(* Where the production stream departs from a reference sweep, if
   anywhere: every instruction rebuilt from the parallel arrays
   ([Linear.ins]) must be the reference's record, and the resync counts
   must agree. *)
let stream_mismatch (l : Linear.t) (r : t) =
  if l.Linear.resync_errors <> r.resync_errors then
    Some (Printf.sprintf "resync_errors %d <> %d" l.Linear.resync_errors r.resync_errors)
  else if Linear.length l <> Array.length r.insns then
    Some (Printf.sprintf "%d insns <> %d" (Linear.length l) (Array.length r.insns))
  else
    let rec first_diff i =
      if i = Array.length r.insns then None
      else if Linear.ins l i <> r.insns.(i) then
        Some
          (Printf.sprintf "insn %d: %s at 0x%x <> %s at 0x%x" i
             (Decoder.kind_to_string (Linear.ins l i).kind)
             (Linear.ins l i).addr
             (Decoder.kind_to_string r.insns.(i).kind)
             r.insns.(i).addr)
      else first_diff (i + 1)
    in
    first_diff 0

(* ---- The index-build oracle ----------------------------------------- *)

(* The list extractors the substrate's index arrays replaced: one walk of
   the instruction stream per index, address order throughout. *)

let fold_insns t f = List.rev (Array.fold_left f [] t.insns)

(* End-branch markers of the sweep's architecture. *)
let endbr_addrs t =
  let want = match t.arch with Arch.X64 -> Decoder.Endbr64 | Arch.X86 -> Decoder.Endbr32 in
  fold_insns t (fun acc (i : Decoder.ins) -> if i.kind = want then i.addr :: acc else acc)

(* Every direct call as [(site, return address, target)], including calls
   leaving the region (PLT calls). *)
let call_sites t =
  fold_insns t (fun acc (i : Decoder.ins) ->
      match i.kind with
      | Decoder.Call_direct target -> (i.addr, i.addr + i.len, target) :: acc
      | _ -> acc)

(* Unconditional direct jumps as [(site, target)], targets in the region. *)
let jmp_refs t =
  fold_insns t (fun acc (i : Decoder.ins) ->
      match i.kind with
      | Decoder.Jmp_direct target when in_range t target -> (i.addr, target) :: acc
      | _ -> acc)

(* Distinct in-region call targets, sorted. *)
let call_targets t =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun (_, _, target) -> if in_range t target then Some target else None)
       (call_sites t))

(* Distinct in-region jump targets, sorted (conditional branches never
   count: only unconditional jumps can be tail calls). *)
let jmp_targets t = List.sort_uniq Int.compare (List.map snd (jmp_refs t))
