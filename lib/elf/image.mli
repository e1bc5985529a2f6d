(** In-memory model of an ELF executable: what the link stage produces and
    the writer serialises.

    Virtual addresses are chosen by the producer (the synthetic compiler's
    link stage); the writer only assigns file offsets and emits the derived
    sections ([.symtab]/[.strtab], [.dynsym]/[.dynstr], [.rel(a).plt],
    [.note.gnu.property], [.shstrtab]). *)

type section = {
  name : string;
  sh_type : int;
  flags : int;
  vaddr : int;
  addralign : int;
  entsize : int;
  data : string;
}

type t = {
  arch : Cet_x86.Arch.t;
      (** drives the ELF class and layout conventions; for non-x86 machines
          (the ARM BTI extension) use [X64] with a [machine] override *)
  machine : int option;  (** [e_machine] override (e.g. EM_AARCH64); [None] = from [arch] *)
  pie : bool;  (** [true] → [ET_DYN], [false] → [ET_EXEC] *)
  cet_note : bool;  (** emit the IBT+SHSTK [.note.gnu.property] *)
  entry : int;
  sections : section list;  (** content sections, in layout order *)
  symbols : Symbol.t list;  (** serialised to [.symtab] unless stripped *)
  dynsyms : Symbol.t list;  (** serialised to [.dynsym]; index 0 implicit *)
  plt_relocs : (int * string) list;
      (** (GOT slot vaddr, imported name) in PLT order; serialised to
          [.rel.plt] (x86) or [.rela.plt] (x86-64) *)
}

val section : ?flags:int -> ?addralign:int -> ?entsize:int -> ?sh_type:int ->
  name:string -> vaddr:int -> string -> section
(** Convenience constructor; defaults: PROGBITS, ALLOC, align 1, entsize 0. *)
