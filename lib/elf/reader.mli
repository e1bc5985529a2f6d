(** ELF executable parser: the front half of PARSE in the FunSeeker
    algorithm, also used by the baseline tools and the ground-truth
    extractor. *)

type section = {
  name : string;
  sh_type : int;
  flags : int;
  vaddr : int;
  size : int;
  entsize : int;
  addralign : int;
  data : string;
  file_off : int;
      (** byte offset of the payload in the raw image, so hot paths can
          read it in place (see {!section_view}); [-1] when the payload
          has no backing slice (SHT_NOBITS, dropped/oversized payloads) *)
}

type t

exception Malformed of string

val read : string -> t
(** Parse ELF bytes. Raises {!Malformed} on anything structurally broken. *)

val read_diag : string -> (t * Cet_util.Diag.t list, Cet_util.Diag.t) result
(** Lenient parse for untrusted inputs — the robust analysis path.  Where
    {!read} raises, [read_diag] degrades whenever a partial image is still
    meaningful, reporting every degradation as a diagnostic: a truncated
    section header table is salvaged up to the last complete entry, an
    unusable [.shstrtab] leaves sections unnamed, out-of-range section
    payloads are clamped to the bytes present ([section-clamp]), and
    payloads beyond the sanity cap are refused ([resource-limit]).
    [Error] is returned only when nothing is analyzable: bad magic,
    unreadable fixed header, or no readable section headers.  Never
    raises. *)

val arch : t -> Cet_x86.Arch.t

val machine : t -> int
(** Raw [e_machine] (EM_386, EM_X86_64, or EM_AARCH64 for the BTI
    extension). *)

val pie : t -> bool
val entry : t -> int
val sections : t -> section list
val find_section : t -> string -> section option

val section_view : t -> section -> string * int * int
(** [section_view t s] is [(buf, pos, len)] such that the section payload
    is [buf.[pos .. pos+len-1]] — the raw image slice when one backs the
    section (no copy), [s.data] itself otherwise.  The stream-free scan
    consumes [.text] through this instead of [data]. *)

val symbols : t -> Symbol.t list
(** [.symtab] contents (empty for stripped binaries). *)

val dyn_symbols : t -> Symbol.t array
(** [.dynsym] contents including the null entry at index 0. *)

val plt_relocs : t -> (int * string) list
(** [(got_slot_vaddr, import_name)] pairs from [.rel(a).plt], in table
    order — the order PLT stubs are laid out in. *)

val cet_enabled : t -> bool
(** True iff [.note.gnu.property] carries the IBT feature bit. *)
