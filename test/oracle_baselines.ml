(* The record-based baseline kernels the parallel-array stream retired,
   kept as differential oracles for [Cet_baselines.Common]: the same
   analyses, walking one [Decoder.ins] record per instruction of a
   reference sweep ([Oracle_sweep]) with a [Queue] worklist, hashtable
   probes first and an option per stack delta.  The production kernels
   must return exactly what these return. *)

module Decoder = Cet_x86.Decoder
module Arch = Cet_x86.Arch

(* Index of the first instruction at or after [addr]. *)
let first_index_at (sweep : Oracle_sweep.t) addr =
  let insns = sweep.insns in
  let lo = ref 0 and hi = ref (Array.length insns) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if insns.(mid).Decoder.addr < addr then lo := mid + 1 else hi := mid
  done;
  !lo

let index_of (sweep : Oracle_sweep.t) addr =
  let i = first_index_at sweep addr in
  if i < Array.length sweep.insns && sweep.insns.(i).Decoder.addr = addr then Some i else None

let insn_at (sweep : Oracle_sweep.t) addr =
  match index_of sweep addr with Some i -> Some sweep.insns.(i) | None -> None

type explored = { e_functions : int list; e_visited : Bytes.t }

(* Recursive descent over the sweep's instruction stream.  Instruction
   lookup is a binary search into the sorted [insns] array and the visited
   set is one byte per instruction — the traversal allocates nothing per
   step, where it used to build an address→instruction hashtable as large
   as the stream on every call. *)
let explore (sweep : Oracle_sweep.t) ~roots =
  let insns = sweep.insns in
  let visited = Bytes.make (Array.length insns) '\000' in
  let functions = Hashtbl.create 256 in
  let wl = Queue.create () in
  List.iter
    (fun r ->
      if Oracle_sweep.in_range sweep r then begin
        Hashtbl.replace functions r ();
        Queue.add r wl
      end)
    roots;
  while not (Queue.is_empty wl) do
    let a = Queue.pop wl in
    match index_of sweep a with
    | None -> ()
    | Some k ->
      if Bytes.get visited k = '\000' then begin
        Bytes.set visited k '\001';
        let ins = insns.(k) in
        let fall () = Queue.add (a + ins.Decoder.len) wl in
        match ins.kind with
        | Decoder.Ret | Decoder.Halt -> ()
        | Decoder.Jmp_direct t -> if Oracle_sweep.in_range sweep t then Queue.add t wl
        | Decoder.Jcc_direct t ->
          if Oracle_sweep.in_range sweep t then Queue.add t wl;
          fall ()
        | Decoder.Call_direct t ->
          if Oracle_sweep.in_range sweep t && not (Hashtbl.mem functions t) then begin
            Hashtbl.replace functions t ();
            Queue.add t wl
          end;
          fall ()
        | Decoder.Jmp_indirect _ -> ()
        | Decoder.Call_indirect _ | Decoder.Endbr64 | Decoder.Endbr32 | Decoder.Addr_ref _
        | Decoder.Other ->
          fall ()
      end
  done;
  {
    e_functions =
      Hashtbl.fold (fun k () acc -> k :: acc) functions [] |> List.sort Int.compare;
    e_visited = visited;
  }

let byte (sweep : Oracle_sweep.t) off =
  if off < 0 || off >= sweep.size then -1 else Char.code sweep.code.[off]

let entry_main_root (sweep : Oracle_sweep.t) ~entry =
  let rec scan addr budget =
    if budget = 0 then None
    else
      match insn_at sweep addr with
      | None -> None
      | Some ins -> (
        match ins.Decoder.kind with
        | Decoder.Addr_ref t when Oracle_sweep.in_range sweep t -> Some t
        | Decoder.Ret | Decoder.Halt | Decoder.Jmp_direct _ | Decoder.Jmp_indirect _ ->
          None
        | _ -> scan (addr + ins.Decoder.len) (budget - 1))
  in
  scan entry 12

(* Does the byte sequence at [off] look like a prologue? *)
let prologue_at (sweep : Oracle_sweep.t) off ~aggressive =
  let b0 = byte sweep off and b1 = byte sweep (off + 1) and b2 = byte sweep (off + 2) in
  let x64 = sweep.arch = Arch.X64 in
  let push_rbp_mov =
    b0 = 0x55
    &&
    if x64 then b1 = 0x48 && b2 = 0x89 && byte sweep (off + 3) = 0xE5
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
let endbr_before (sweep : Oracle_sweep.t) off =
  off >= 4
  && byte sweep (off - 4) = 0xF3
  && byte sweep (off - 3) = 0x0F
  && byte sweep (off - 2) = 0x1E
  && (byte sweep (off - 1) = 0xFA || byte sweep (off - 1) = 0xFB)

let prologue_scan (sweep : Oracle_sweep.t) ~known ~aggressive ?visited ?(suppress = []) () =
  let known_set = Hashtbl.create (max 16 (List.length known)) in
  List.iter (fun a -> Hashtbl.replace known_set a ()) known;
  (* Lenient: extents recovered from a corrupt .eh_frame can overlap, and
     a suppression table that is merely smaller must not abort the scan. *)
  let suppress =
    Cet_util.Itable.of_list_lenient (List.map (fun (lo, hi) -> (lo, hi, ())) suppress)
  in
  let hits = ref [] in
  Array.iteri
    (fun idx (i : Decoder.ins) ->
      let a = i.Decoder.addr in
      let off = a - sweep.base in
      if
        (not (Hashtbl.mem known_set a))
        && (not (Cet_util.Itable.mem suppress a))
        && (match visited with Some v -> Bytes.get v idx = '\000' | None -> true)
        && prologue_at sweep off ~aggressive
      then begin
        let after_endbr = endbr_before sweep off in
        let after_boundary = off = 0 || boundary_byte (byte sweep (off - 1)) in
        let aligned = a land 15 = 0 in
        (* Conservative scanners demand an aligned start (or the legacy-NOP
           end-branch anchor); aggressive ones take any post-boundary
           position. *)
        if
          (after_boundary || after_endbr)
          && (aggressive || aligned || after_endbr)
        then hits := a :: !hits
      end)
    sweep.insns;
  List.sort_uniq Int.compare !hits

(* Byte-level stack-delta of the instruction at [off]; [None] resets the
   height (frame release via leave). *)
let stack_delta (sweep : Oracle_sweep.t) off =
  let ptr = Arch.ptr_size sweep.arch in
  let b0 = byte sweep off in
  let b0, off =
    if b0 >= 0x40 && b0 <= 0x4F && sweep.arch = Arch.X64 then (byte sweep (off + 1), off + 1)
    else (b0, off)
  in
  if b0 >= 0x50 && b0 <= 0x57 then Some ptr
  else if b0 >= 0x58 && b0 <= 0x5F then Some (-ptr)
  else if b0 = 0x83 && byte sweep (off + 1) = 0xEC then Some (byte sweep (off + 2))
  else if b0 = 0x83 && byte sweep (off + 1) = 0xC4 then Some (-byte sweep (off + 2))
  else if b0 = 0xC9 then None (* leave *)
  else Some 0

let stack_height_tail_targets (sweep : Oracle_sweep.t) ~extents ~passes =
  let insns = sweep.insns in
  let n = Array.length insns in
  let targets = ref [] in
  List.iter
    (fun (lo, hi) ->
      (* The retired multi-pass model of FETCH's cost: each pass rebuilds
         the extent's stack-height profile from zero and only the last
         records targets, so any [passes] >= 1 returns what the single
         production walk returns. *)
      let start = first_index_at sweep lo in
      for pass = 1 to passes do
        let height = ref 0 in
        let k = ref start in
        while !k < n && insns.(!k).Decoder.addr < hi do
          let i = insns.(!k) in
          (match stack_delta sweep (i.Decoder.addr - sweep.base) with
          | None -> height := 0
          | Some d -> height := !height + d);
          (match i.Decoder.kind with
          | Decoder.Jmp_direct t
            when (t < lo || t >= hi) && Oracle_sweep.in_range sweep t && !height <= 0 ->
            if pass = passes then targets := t :: !targets
          | _ -> ());
          incr k
        done
      done)
    extents;
  List.sort_uniq Int.compare !targets

(* ---- IDA- and Ghidra-like as two fresh traversals --------------------- *)

(* The shape both tools had before their second traversal resumed the
   first: a traversal from the entry points (and, for Ghidra, the FDE
   starts), a gap scan over what it left unwalked, then a second
   traversal from scratch over the scan's hits and everything known.
   Built from the kernels above over the reference sweep of [.text]; the
   substrate supplies only what is not the stream: the ELF header and the
   FDE extents. *)

module Substrate = Cet_disasm.Substrate
module Reader = Cet_elf.Reader

let entry_roots sweep reader =
  let entry = Reader.entry reader in
  entry :: (match entry_main_root sweep ~entry with Some m -> [ m ] | None -> [])

let second_traversal sweep ~known ~pattern_hits ~in_text =
  let ex2 = explore sweep ~roots:(pattern_hits @ known) in
  List.sort_uniq Int.compare (known @ pattern_hits @ ex2.e_functions) |> List.filter in_text

let ida_like st =
  match Substrate.text st with
  | None -> []
  | Some text ->
    let reader = Substrate.reader st in
    let sweep = Oracle_sweep.sweep_text_reference reader in
    let in_text a = a >= text.vaddr && a < text.vaddr + text.size in
    let ex = explore sweep ~roots:(entry_roots sweep reader) in
    let starts = ex.e_functions in
    (* A jump to an address before the start of the function holding the
       jump starts a function. *)
    let owner site = List.fold_left (fun acc s -> if s <= site then Some s else acc) None starts in
    let tail_jumps =
      List.filter_map
        (fun (site, target) ->
          match owner site with
          | Some f when target < f && not (List.mem target starts) -> Some target
          | _ -> None)
        (Oracle_sweep.jmp_refs sweep)
    in
    let addr_refs =
      let unambiguous =
        match Reader.arch reader with Arch.X64 -> true | Arch.X86 -> not (Reader.pie reader)
      in
      if not unambiguous then []
      else
        Array.fold_right
          (fun (i : Decoder.ins) acc ->
            match i.kind with
            | Decoder.Addr_ref t when in_text t && t land 3 = 0 -> t :: acc
            | _ -> acc)
          sweep.insns []
    in
    let known = List.sort_uniq Int.compare (starts @ tail_jumps @ addr_refs) in
    let pattern_hits = prologue_scan sweep ~known ~aggressive:false ~visited:ex.e_visited () in
    second_traversal sweep ~known ~pattern_hits ~in_text

let ghidra_like st =
  match Substrate.text st with
  | None -> []
  | Some text ->
    let reader = Substrate.reader st in
    let sweep = Oracle_sweep.sweep_text_reference reader in
    let in_text a = a >= text.vaddr && a < text.vaddr + text.size in
    let fde_extents = List.filter (fun (lo, _) -> in_text lo) (Substrate.fde_extents st) in
    let roots = entry_roots sweep reader @ List.map fst fde_extents in
    let ex = explore sweep ~roots in
    let known = List.sort_uniq Int.compare (roots @ ex.e_functions) in
    let pattern_hits =
      prologue_scan sweep ~known ~aggressive:(Reader.arch reader = Arch.X86)
        ~visited:ex.e_visited ~suppress:fde_extents ()
    in
    second_traversal sweep ~known ~pattern_hits ~in_text
