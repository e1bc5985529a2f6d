(* The retired byte-at-a-time sweeps and the per-byte anchor scan, kept as
   differential-testing oracles for [Cet_disasm.Linear] and
   [Cet_disasm.Prescan].  They run on the retired decoder
   ([Oracle_decoder.decode]), one instruction record at a time, so a
   sweep-level test checks the production scan core and the production
   loops together.  Not memoised, not telemetry-instrumented.  The list
   extractors at the end are the index-build oracle for
   [Cet_disasm.Substrate.indexes]. *)

module Arch = Cet_x86.Arch
module Linear = Cet_disasm.Linear

let finish arch base code insns errors =
  {
    Linear.arch;
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
  let anchors = Array.to_list (anchor_offsets_naive arch code) in
  let next_anchor_after off = List.find_opt (fun a -> a > off) anchors in
  let insns = ref [] and errors = ref 0 and off = ref 0 in
  (* Once a decode fails, everything up to the next end-branch anchor is
     suspected inline data and its instructions are withheld. *)
  let trusted = ref true in
  while !off < size do
    if List.mem !off anchors then trusted := true;
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

(* ---- The index-build oracle ----------------------------------------- *)

(* The list extractors the substrate's index arrays replaced: one walk of
   the instruction stream per index, address order throughout. *)

module Decoder = Cet_x86.Decoder

let fold_insns (t : Linear.t) f = List.rev (Array.fold_left f [] t.Linear.insns)

(* End-branch markers of the sweep's architecture. *)
let endbr_addrs (t : Linear.t) =
  let want = match t.Linear.arch with Arch.X64 -> Decoder.Endbr64 | Arch.X86 -> Decoder.Endbr32 in
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
      | Decoder.Jmp_direct target when Linear.in_range t target -> (i.addr, target) :: acc
      | _ -> acc)

(* Distinct in-region call targets, sorted. *)
let call_targets t =
  List.sort_uniq Int.compare
    (List.filter_map
       (fun (_, _, target) -> if Linear.in_range t target then Some target else None)
       (call_sites t))

(* Distinct in-region jump targets, sorted (conditional branches never
   count: only unconditional jumps can be tail calls). *)
let jmp_targets t = List.sort_uniq Int.compare (List.map snd (jmp_refs t))
