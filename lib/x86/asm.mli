(** One-pass assembler: an emitter that encodes each instruction as it is
    given, straight into section bytes, and resolves labels into the
    rel32/abs32 fields of {!Insn.t} at link time, the way an assembler and
    a linker split the work.

    Labels are ints, dense from 0, chosen by the caller: one int array of
    addresses, indexed by label, resolves them all.  Every label field is
    32 bits (or a {!table} entry) and is emitted as a placeholder plus a
    relocation, so no instruction's size depends on a label and the layout
    is final as it is emitted.  {!link} patches the relocations.

    Code that is emitted before its place comes (a landing pad that goes
    after its function's epilogue) goes to a side buffer, which {!append}
    later copies to the end of a section, its label definitions and
    relocations rebased. *)

type label = int

type t
(** Code being assembled: its bytes, with every label field still a
    placeholder, the offset of every label defined in it, and the
    relocations that fill the placeholders. *)

val create : arch:Arch.t -> base:int -> t
(** An empty section at virtual address [base]. *)

val side : t -> t
(** [side t] is an empty side buffer for [t]'s architecture.  It has no
    address until it is appended, so it cannot be aligned. *)

val append : t -> t -> unit
(** [append dst src] copies the bytes, label definitions and relocations
    of [src] to the end of [dst].  Append a side buffer once, and emit
    nothing more into it afterwards. *)

val define : t -> label -> unit
(** Defines a label at the current end of [t].  Where a label is defined
    twice, the last definition wins. *)

val ins : t -> Insn.t -> unit
(** Encodes an instruction.  Raises [Invalid_argument] where
    {!Encoder.encode_into} does. *)

val bytes : t -> string -> pos:int -> len:int -> unit
(** [bytes t s ~pos ~len] copies the [len] bytes of [s] from [pos]:
    instructions encoded beforehand, with no label field.  Raises
    [Invalid_argument] unless the bytes lie within [s]. *)

val call : t -> label -> unit
val jmp : t -> label -> unit
val jcc : t -> Insn.cond -> label -> unit

val lea : t -> Register.t -> label -> unit
(** Address-of: [lea r, \[rip+l\]] on x86-64; [mov r, l] (abs32) on x86 —
    the two forms compilers use to materialise code pointers. *)

val push : t -> label -> unit
(** [push imm32] of a label's address (x86 call arguments). *)

val mov_mi : t -> Insn.mem -> label -> unit
(** Stores a label's address to memory ([mov dword \[m\], l]); x86 only
    (x86-64 stores go through a register). *)

val jmp_table : t -> table:label -> index:Register.t -> scale:int -> notrack:bool -> unit
(** [notrack jmp \[table + index*scale\]] — the x86 non-PIE switch idiom. *)

val table : t -> entry_size:int -> label list -> unit
(** The labels' addresses as little-endian data words of [entry_size]
    bytes — the inline-jump-table idiom of hand-written assembly (data in
    [.text]).  Raises [Invalid_argument] unless [entry_size] is 4 or 8. *)

val align : t -> int -> unit
(** [align t boundary] pads [t] with NOPs up to the next address that is
    a multiple of [boundary].  Raises [Invalid_argument] on a side
    buffer. *)

val size : t -> int
(** The bytes emitted so far. *)

val addresses : t -> int -> int array
(** [addresses t n] is a fresh array of [n] label addresses: that of every
    label defined in the section [t], and [-1] for the rest, which the
    caller fills in before {!link}. *)

val link : t -> int array -> string
(** [link t addrs] patches every relocation against [addrs], in emission
    order, and returns the section bytes.  Raises [Invalid_argument] if a
    referenced label's address is [-1] (undefined), if a rel32 overflows
    (images here never do) or if an abs32 target lies outside
    \[-2{^31}, 2{^32}). *)
