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

val link : Options.t -> Ir.program -> result
(** Lower and encode, lay out, patch, and package a program: {!link_prepared}
    of {!Codegen.prepare}.  Raises [Invalid_argument] when {!Ir.validate}
    rejects the program. *)

val link_prepared : Options.t -> Codegen.prepared -> result
(** {!link} of a prepared program, which may be linked under several
    configurations, from several domains at once. *)
