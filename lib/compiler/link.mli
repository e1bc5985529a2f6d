(** Layout and image production: the "linker" back half of the synthetic
    toolchain.

    Section order: [.plt], [.text], [.rodata] (jump tables), [.eh_frame],
    [.gcc_except_table] (C++ only), [.got.plt], [.data].  PLT entries are
    16 bytes, IBT-style (end-branch + indirect jump through the GOT slot),
    and the matching [.rel(a).plt] relocations give analysis tools the
    import-name mapping FunSeeker's FILTERENDBR relies on.

    [.text]'s address depends only on the import count, so {!link} fixes
    it first and {!Codegen.lower} encodes the code in place.  One int
    array of label addresses then serves every later step: the local
    labels come from the laid-out [.text], and [link] adds the PLT entries
    and the [.rodata] jump tables before it reads fragment bounds, LSDA
    call sites and symbols from the array and patches [.text]'s label
    fields. *)

type result = {
  image : Cet_elf.Image.t;
  truth : (string * int) list;
      (** real function entries (name, vaddr), including symbol-less corner
          cases, excluding [.cold]/[.part] fragments — the paper's notion of
          ground truth *)
  fragment_extents : (string * int * int) list;
      (** every laid-out fragment as (name, start, end) *)
  plt_entries : (string * int) list;  (** import name → PLT entry vaddr *)
}

val base_address : Options.t -> int
(** Link base: 0x8049000 (x86 non-PIE), 0x401000 (x86-64 non-PIE), 0x1000
    (PIE). *)

val plt_entry_size : int

val link : Options.t -> Ir.program -> result
(** Lower and encode, lay out, patch, and package a program. *)

val compile : ?strip:bool -> Options.t -> Ir.program -> string
(** [link] followed by ELF serialisation. *)
