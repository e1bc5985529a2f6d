(** DWARF exception-handling pointer encodings (the [DW_EH_PE] family), the value
    representation used by [.eh_frame] CIEs/FDEs.

    Only the combinations GCC and Clang actually emit for x86/x86-64
    executables are supported: absolute or PC-relative, in sdata4/udata4/
    udata8/uleb formats. *)

val omit : int
(** DW_EH_PE_omit (0xff). *)

val absptr8 : int

val pcrel_sdata4 : int
(** DW_EH_PE_pcrel | DW_EH_PE_sdata4 (0x1b) — the common GCC choice. *)

val udata4 : int
val uleb : int

val size : int -> int option
(** Encoded size in bytes, if fixed ([None] for uleb/omit). *)

val write : Cet_util.Bytesio.W.t -> enc:int -> field_addr:int -> value:int -> unit
(** [write w ~enc ~field_addr ~value] appends [value] encoded per [enc];
    [field_addr] is the virtual address where the field will live (needed
    for PC-relative forms).  Raises [Invalid_argument] on unsupported
    encodings. *)

val read : Cet_util.Bytesio.R.t -> enc:int -> field_addr:int -> int
(** Inverse of {!write}; [field_addr] is the virtual address of the field
    being read. *)
