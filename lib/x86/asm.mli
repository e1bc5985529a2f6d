(** One-pass assembler: encodes items into section bytes and resolves
    symbolic labels into the rel32/abs32 fields of {!Insn.t}, the way an
    assembler and a linker split the work.

    {!layout} encodes each item exactly once, straight into the section
    buffer.  It records every label's address as it reaches it, and emits
    every label reference with a placeholder plus a relocation.  Item sizes
    never depend on label values (every label field is 32 bits, or a
    [Table] entry), so the layout is final before any label is known.
    {!link} then patches the relocations against the local labels and a
    resolver for the rest. *)

type fill = Fill_nop | Fill_int3 | Fill_zero

type item =
  | Label of string
  | Ins of Insn.t
  | Call_lbl of string
  | Jmp_lbl of string
  | Jcc_lbl of Insn.cond * string
  | Lea_lbl of Register.t * string
      (** Address-of: [lea r, \[rip+sym\]] on x86-64; [mov r, sym] (abs32) on
          x86 — the two forms compilers use to materialise code pointers. *)
  | Push_lbl of string  (** [push imm32] of a symbol address (x86 call args). *)
  | Mov_mi_lbl of Insn.mem * string
      (** Store a symbol address to memory ([mov dword \[m\], sym]); x86 only
          (x86-64 stores go through a register). *)
  | Jmp_table_lbl of { table : string; index : Register.t; scale : int; notrack : bool }
      (** [notrack jmp \[table + index*scale\]] — the x86 non-PIE switch idiom. *)
  | Mov_rm_table of { dst : Register.t; table : string; index : Register.t; scale : int }
      (** [mov dst, \[table + index*scale\]] with absolute table base (x86). *)
  | Bytes_raw of string
  | Table of { entries : string list; entry_size : int }
      (** label addresses laid out as little-endian data words of 4 or 8
          bytes — the inline-jump-table idiom of hand-written assembly (data
          in [.text]) *)
  | Align of { boundary : int; fill : fill }

type obj
(** A laid-out section: its bytes, with every label field still a
    placeholder, the address of every local label, and the relocations
    that fill the placeholders. *)

val layout : arch:Arch.t -> base:int -> item list list -> obj
(** [layout ~arch ~base chunks] encodes the items of [chunks], in order,
    at virtual address [base].  A section comes in chunks, one per
    function fragment, so that it need not be concatenated first.  Raises
    [Invalid_argument] where {!Encoder.encode_into} does, and for a
    [Table] whose entries are not 4 or 8 bytes. *)

val size : obj -> int
(** The section size in bytes. *)

val labels : obj -> (string, int) Hashtbl.t
(** The virtual address of every [Label]; where a label is defined twice,
    the last definition wins.  Owned by the [obj]: read it, do not change
    it. *)

val link : obj -> resolve:(string -> int) -> string
(** Patches every relocation, in item order, and returns the section
    bytes.  [resolve] must return the virtual address of every symbol
    referenced but not defined by a local [Label]; local labels shadow it.
    Raises [Invalid_argument] if a rel32 overflows (images here never do)
    or an abs32 target lies outside \[-2{^31}, 2{^32}). *)

val assemble :
  arch:Arch.t ->
  base:int ->
  resolve:(string -> int) ->
  item list ->
  string
(** [assemble ~arch ~base ~resolve items] is
    [link (layout ~arch ~base [items]) ~resolve]. *)
