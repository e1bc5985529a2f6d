(** Table-driven x86 / x86-64 instruction length decoder and classifier,
    and the one decode loop over a code region.

    This is the disassembler front-end used by the linear sweep (§IV-B of the
    paper).  One scan core walks legacy prefixes and REX (x86-64) through a
    256-entry prefix map, then dispatches the opcode through 256-entry
    one-byte and [0F] two-byte maps whose entries name the operand shape
    (plain, ModRM, immediate, relative branch, or one of a few special
    forms); a shared 256-entry ModRM rule gives the SIB/displacement
    length.  That covers every instruction the synthetic compiler emits
    plus the common encodings around them, and classifies each into the
    categories the FunSeeker algorithm cares about.

    {!walk}, the loop every linear sweep and scan of a region runs, lives
    here with the core and its two sinks ({!stream}, {!harvest}): the
    default build compiles with [-opaque], which stops inlining at module
    boundaries, and here the core inlines into the loop, so no instruction
    pays a call. *)

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
    [off] is outside [0 .. limit - 1].  Raises [Invalid_argument] if
    [limit] is outside [0 .. String.length code].  The same core as
    {!walk}'s, one instruction at a time. *)

val scratch_addr : scratch -> int
(** Virtual address of the last successfully scanned instruction. *)

val scratch_len : scratch -> int
val scratch_tag : scratch -> int

val scratch_target : scratch -> int
(** Resolved absolute target/slot/ref payload — meaningful for the direct
    tags and [tag_addr_ref] always, and for the indirect tags only when the
    instruction had a bare-disp32 memory operand (cf. {!scratch_ins}). *)

val ins_of_flags : addr:int -> len:int -> flags:int -> target:int -> ins
(** The record a scan with these results stands for; [flags] is a
    {!stream} tag byte, whose {!flag_padding} bit it ignores. *)

val flag_padding : int
(** The bit of a {!stream} tag byte that marks padding: [90] with
    neither an [F3] nor a REX.B prefix, the [0F 1F] NOP family under any
    prefixes, and [CC].  The opcode lookup every scan makes already
    carries it, so a scan that keeps no stream pays nothing for it. *)

val scratch_ins : scratch -> ins
(** Materialise the last scan as an {!ins} record (allocates). *)

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

(** {1 The decode loop}

    Plain or end-branch-anchored, {!walk} decodes instruction after
    instruction of a region and hands each kept instruction to up to two
    sinks: the instruction stream ([Cet_disasm.Linear.t]'s parallel
    arrays) and the index harvest ([Cet_disasm.Substrate.indexes]'s
    buffers).  [Linear.sweep] runs it with the stream only, the
    substrate's stream-free scan (plain or anchored) with the harvest
    only, and a substrate sweep with the stream plus the harvest unless
    the indexes are memoised already, so the sweep and the scan are the
    same pass.  No caller keeps the stream of an anchored walk. *)

type stream = {
  addrs : int array;
  targets : int array;
  lens : Bytes.t;
  tags : Bytes.t;
      (** the tag byte: the kind tag in the low nibble, plus [16] when a
          [3E] (NOTRACK) prefix was present, [32] when an indirect
          branch had a bare-disp32 memory operand (its [goto] slot is the
          target) and {!flag_padding} on NOP and INT3 fill;
          {!ins_of_flags} reads it back *)
}
(** The kept instructions of one walk as parallel arrays, one entry per
    instruction and no spare capacity. *)

type harvest = {
  eb : Cet_util.Ibuf.t;  (** end-branches of the walked architecture *)
  cs : Cet_util.Ibuf.t;  (** direct-call sites *)
  cr : Cet_util.Ibuf.t;  (** their return addresses *)
  ct : Cet_util.Ibuf.t;  (** their targets, in range or not *)
  js : Cet_util.Ibuf.t;  (** sites of direct jumps with in-range targets *)
  jt : Cet_util.Ibuf.t;  (** their targets *)
}
(** The index buffers, all in address order. *)

val harvest : unit -> harvest

type walked = {
  resync_errors : int;
  insns : int;  (** instructions kept *)
  stream : stream option;  (** the kept instructions, under [~stream:true] *)
}

val walk :
  Arch.t ->
  phase:string ->
  anchors:int array option ->
  string ->
  pos:int ->
  len:int ->
  vaddr:int ->
  stream:bool ->
  harvest:harvest option ->
  walked
(** [walk arch ~phase ~anchors buf ~pos ~len ~vaddr ~stream ~harvest]
    walks the [len] bytes of [buf] from [pos], whose first byte lives at
    [vaddr].  Raises [Invalid_argument], before reading any byte, unless
    [0 <= pos], [0 <= len] and [pos + len <= String.length buf].

    With [anchors = None] it is the plain sweep: a decode failure advances
    one byte, and each maximal undecodable run is one resync event.  With
    [Some offsets] (region-relative, ascending,
    [Cet_disasm.Prescan.anchor_offsets]) it is the anchored walk: an
    instruction that would straddle an anchor is discarded, and it and
    every decode failure are one event each, the walk resuming at the
    next anchor.  The next anchor is a forward cursor over [offsets],
    since the walk position only grows.

    With [~stream:true] the walk writes the stream into an off-heap
    buffer of the calling domain, with room for [len] instructions (an
    instruction is at least one byte, so the walk never grows it), and
    returns a copy of exactly [insns] entries, which no later walk
    touches.  The buffer stays with the domain: 32 MiB of address space
    at least, of which the pages the longest region it has streamed
    wrote, 16 bytes per instruction, are resident.

    [phase] names the walk in {!Cet_util.Deadline.check}, polled every
    4096 steps. *)
