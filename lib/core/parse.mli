(** PARSE: the binary-level inputs of the FunSeeker algorithm (Alg. 1,
    line 2) that are not per-substrate facts — the PLT import map, with
    the indirect-return call set FILTERENDBR derives from it.  The
    [.text] section ({!Cet_disasm.Substrate.text}) and the C++ exception
    information (landing pads from [.eh_frame] LSDA pointers into
    [.gcc_except_table], {!Cet_disasm.Substrate.landing_pads}) are read
    once per binary by the substrate. *)

type plt_map = {
  plt_lo : int;
  plt_hi : int;  (** [.plt] extent, exclusive *)
  entries : (int * string) list;  (** entry vaddr → imported name *)
}

val plt : Cet_elf.Reader.t -> plt_map
(** Recover the PLT map: relocation order gives entry order (entry [i] of
    [.rel(a).plt] owns the PLT slot at [plt_base + 16*(i+1)]).  Returns an
    empty map when the binary has no PLT. *)

val plt_name : plt_map -> int -> string option
(** Name of the import whose PLT entry starts at the given address. *)

val in_plt : plt_map -> int -> bool

val indirect_return_imports : string list
(** GCC's predefined indirect-return functions, the FILTERENDBR allowlist:
    [setjmp], [_setjmp], [sigsetjmp], [savectx], [vfork], [getcontext]. *)

val plt_st : Cet_disasm.Substrate.t -> plt_map
(** {!plt} of the substrate's image.  Over a
    {!Cet_disasm.Substrate.of_bytes_diag} substrate an unreadable PLT
    degrades to the empty map (no indirect-return filtering), reported
    into the substrate as [core/plt]; otherwise it raises like {!plt}. *)

val indirect_return_calls : plt_map -> Cet_disasm.Substrate.indexes -> int array
(** The direct calls into the PLT slots of {!indirect_return_imports}, as
    ascending indices into the call arrays of the given indexes: the call
    site is [call_sites.(k)] and the end-branch such a call makes
    legitimate sits at its return address [call_rets.(k)].  FILTERENDBR,
    the Table I study and the IBT audit all read the set from here. *)
