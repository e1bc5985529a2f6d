module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module Decoder = Cet_x86.Decoder

type violation = { v_target : int; v_reason : reason }

and reason = Address_taken | Data_pointer | Landing_pad | Plt_entry

type report = {
  violations : violation list;
  checked : int;
  marked : int;
  superfluous : int;
}

let reason_to_string = function
  | Address_taken -> "address taken in code"
  | Data_pointer -> "code pointer in data"
  | Landing_pad -> "exception landing pad"
  | Plt_entry -> "PLT entry"

let audit_st st =
  let reader = Substrate.reader st in
  let sweep = Substrate.sweep st in
  let ix = Substrate.indexes st in
  let insn_start a = Linear.index_of sweep a <> None in
  let endbrs = ix.Substrate.endbrs in
  (* PLT entries carry their own end-branches (checked against raw bytes:
     the PLT is outside .text). *)
  let plt = Parse.plt_st st in
  let plt_section = Cet_elf.Reader.find_section reader ".plt" in
  let arch = Cet_elf.Reader.arch reader in
  let plt_entry_marked addr =
    match plt_section with
    | None -> false
    | Some s -> (
      let off = addr - s.vaddr in
      match Decoder.decode arch s.data ~base:s.vaddr ~off with
      | Ok { kind = Decoder.Endbr64; _ } -> arch = Cet_x86.Arch.X64
      | Ok { kind = Decoder.Endbr32; _ } -> arch = Cet_x86.Arch.X86
      | _ -> false)
  in
  (* Candidate indirect-branch targets. *)
  let candidates = Hashtbl.create 256 in
  let add_candidate target reason =
    if not (Hashtbl.mem candidates target) then Hashtbl.replace candidates target reason
  in
  (* 1. Addresses materialised in code that point at instruction starts:
     function pointers about to be called or escaped. *)
  Array.iter
    (fun (i : Decoder.ins) ->
      match i.kind with
      | Decoder.Addr_ref t when Linear.in_range sweep t && insn_start t ->
        add_candidate t Address_taken
      | _ -> ())
    sweep.insns;
  (* 2. Landing pads: the unwinder enters them indirectly.  (Jump tables in
     .rodata are exempt: compilers dispatch switches with NOTRACK.) *)
  Array.iter (fun lp -> add_candidate lp Landing_pad) (Substrate.landing_pads st);
  (* 3. Code pointers in writable data (callback tables). *)
  (match Cet_elf.Reader.find_section reader ".data" with
  | None -> ()
  | Some d ->
    let ptr = Cet_x86.Arch.ptr_size arch in
    for w = 0 to (String.length d.data / ptr) - 1 do
      let v = ref 0 in
      for b = ptr - 1 downto 0 do
        v := (!v lsl 8) lor Char.code d.data.[(w * ptr) + b]
      done;
      if Linear.in_range sweep !v && insn_start !v then add_candidate !v Data_pointer
    done);
  (* 4. PLT entries (targets of GOT-mediated jumps). *)
  List.iter (fun (addr, _name) -> add_candidate addr Plt_entry) plt.Parse.entries;
  (* Verdicts. *)
  let violations = ref [] in
  let marked = ref 0 in
  Hashtbl.iter
    (fun target reason ->
      let ok =
        match reason with
        | Plt_entry -> plt_entry_marked target
        | _ -> Linear.mem_sorted endbrs target
      in
      if ok then incr marked
      else violations := { v_target = target; v_reason = reason } :: !violations)
    candidates;
  (* Superfluous markers: end-branches that are neither candidate targets
     nor indirect-return continuation sites — conservative compiler
     over-marking (the paper's §III-B observation, and extra attack
     surface from the defender's perspective). *)
  let ir_returns =
    Array.map (fun k -> ix.Substrate.call_rets.(k)) (Parse.indirect_return_calls plt ix)
  in
  let superfluous =
    Array.fold_left
      (fun acc e ->
        if Hashtbl.mem candidates e || Linear.mem_sorted ir_returns e then acc else acc + 1)
      0 endbrs
  in
  {
    violations =
      List.sort (fun a b -> Int.compare a.v_target b.v_target) !violations;
    checked = Hashtbl.length candidates;
    marked = !marked;
    superfluous;
  }
