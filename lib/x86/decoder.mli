(** Table-driven x86 / x86-64 instruction length decoder and classifier.

    This is the disassembler front-end used by the linear sweep (§IV-B of the
    paper).  One scan core walks legacy prefixes and REX (x86-64) through a
    256-entry prefix map, then dispatches the opcode through 256-entry
    one-byte and [0F] two-byte maps whose entries name the operand shape
    (plain, ModRM, immediate, relative branch, or one of a few special
    forms); a shared 256-entry ModRM rule gives the SIB/displacement
    length.  That covers every instruction the synthetic compiler emits
    plus the common encodings around them, and classifies each into the
    categories the FunSeeker algorithm cares about. *)

type kind =
  | Endbr64
  | Endbr32
  | Call_direct of int  (** absolute target virtual address *)
  | Jmp_direct of int
  | Jcc_direct of int
  | Call_indirect of { goto : int option }
      (** [goto] is the absolute slot address for the bare-disp32 memory form
          (GOT slot of a PLT stub); [None] otherwise. *)
  | Jmp_indirect of { notrack : bool; goto : int option }
  | Ret
  | Halt
  | Addr_ref of int
      (** a code-address materialisation: [lea r, \[rip+d\]] (x86-64) or a
          32-bit immediate load/push (x86) whose operand the caller may
          treat as a potential code pointer *)
  | Other

type ins = { addr : int; len : int; kind : kind }

val decode :
  Arch.t -> string -> base:int -> off:int -> (ins, string) result
(** [decode arch code ~base ~off] decodes the instruction at byte offset
    [off] of section contents [code], whose first byte lives at virtual
    address [base]: {!scan} followed by {!scratch_ins}.  Absolute targets
    of direct branches are computed from the instruction address.  Returns
    [Error _] on bytes outside the decoded subset or on truncation; the
    linear sweep then resynchronises at [off + 1] exactly as the paper
    prescribes. *)

val kind_to_string : kind -> string

(** {1 Allocation-free scan core}

    The result lands in a caller-owned mutable {!scratch} record and
    classification is an int tag, so a successful scan allocates nothing.
    The retired byte-at-a-time decoder lives on in the tests as the
    differential oracle the core is pinned to. *)

type scratch
(** Mutable decode result slots, reused across calls.  Not thread-safe;
    allocate one per domain/loop. *)

val scratch : unit -> scratch

val scan : Arch.t -> scratch -> string -> limit:int -> base:int -> off:int -> bool
(** [scan arch s code ~limit ~base ~off] decodes the instruction at [off]
    (reading no byte at or past [limit]) into [s].  Returns [false] on
    bytes outside the decoded subset, on truncation at [limit], and when
    [off >= limit].  Raises [Invalid_argument] if [limit] is outside
    [0 .. String.length code]. *)

val scratch_addr : scratch -> int
(** Virtual address of the last successfully scanned instruction. *)

val scratch_len : scratch -> int
val scratch_tag : scratch -> int

val scratch_target : scratch -> int
(** Resolved absolute target/slot/ref payload — meaningful for the direct
    tags and [tag_addr_ref] always, and for the indirect tags only when the
    instruction had a bare-disp32 memory operand (cf. {!scratch_ins}). *)

val scratch_flags : scratch -> int
(** {!scratch_tag} plus {!flag_notrack} and {!flag_goto}: one byte that,
    with the address, length and target, rebuilds the scan's {!ins}
    exactly ({!ins_of_flags}). *)

val flag_notrack : int
(** Set when a [3E] (NOTRACK) prefix was present. *)

val flag_goto : int
(** Set when an indirect branch had a bare-disp32 memory operand: its
    target is the [goto] slot. *)

val ins_of_flags : addr:int -> len:int -> flags:int -> target:int -> ins
(** The record a scan with these results stands for. *)

val scratch_ins : scratch -> ins
(** Materialise the last scan as an {!ins} record (allocates):
    {!ins_of_flags} over the scratch slots. *)

(** Tag constants for {!scratch_tag}. *)

val tag_other : int
val tag_endbr64 : int
val tag_endbr32 : int
val tag_call_direct : int
val tag_jmp_direct : int
val tag_jcc_direct : int
val tag_call_indirect : int
val tag_jmp_indirect : int
val tag_ret : int
val tag_halt : int
val tag_addr_ref : int
