(** Per-binary analysis substrate.

    Every identifier in this codebase — FunSeeker and the five baseline
    models — consumes the same raw facts about a binary: the parsed ELF,
    the linear sweep of [.text], the [.eh_frame]/LSDA-derived landing pads
    and FDE tables, and a handful of derived index arrays (end-branch
    addresses, direct-call sites and targets, direct-jump refs and
    targets), of the plain sweep or, on demand, of the
    end-branch-anchored one, which keeps no instruction stream.  Before the
    substrate, the evaluation harness paid the DISASSEMBLE pass once per
    tool — six sweeps of the same [.text] per binary.

    A substrate computes each fact lazily, exactly once, and memoises it
    for the lifetime of the binary.  Memoisation never invalidates: a
    substrate wraps one immutable parsed image, so every cached fact stays
    true forever.  Substrates are not thread-safe; the intended ownership
    is one substrate per binary per evaluation worker (domain).

    The derived indexes are sorted monomorphic [int array]s harvested by
    the one decode loop ({!Cet_x86.Decoder.walk}) — no intermediate
    lists, no polymorphic compares.  The same pass that fills the
    instruction stream fills them, or, when only they are wanted, a pass
    that never builds the stream. *)

type indexes = {
  endbrs : int array;
      (** end-branch addresses matching the architecture, address order
          (therefore sorted) *)
  call_sites : int array;  (** direct-call site addresses, address order *)
  call_rets : int array;  (** parallel to [call_sites]: return addresses *)
  call_tgts : int array;
      (** parallel to [call_sites]: targets, including ones outside the
          swept region (PLT calls — FILTERENDBR inspects those) *)
  call_targets : int array;  (** distinct in-range call targets, sorted *)
  jmp_sites : int array;
      (** sites of unconditional direct jumps with in-range targets,
          address order *)
  jmp_tgts : int array;  (** parallel to [jmp_sites]: targets *)
  jmp_targets : int array;  (** distinct in-range jump targets, sorted *)
}

type facts = {
  f_base : int;  (** virtual address of the first [.text] byte *)
  f_size : int;  (** [.text] size in bytes *)
  f_resync_errors : int;
      (** desynchronisation events, for the plain walk exactly
          {!Linear.t.resync_errors} of {!sweep} *)
  f_insns : int;
      (** instructions decoded and kept (anchored: untrusted runs
          excluded), for the plain walk exactly the length of {!sweep}'s
          stream — per-binary profiles report this as decode volume *)
}
(** The sweep-level facts FunSeeker's analysis needs — deliberately not
    the instruction stream.  Computed by whichever walk of [.text] runs
    first: the stream-free scan, or a sweep; the two agree exactly. *)

type t

val create : Cet_elf.Reader.t -> t
(** Wrap a parsed binary.  Nothing is computed until first use. *)

val of_bytes : string -> t
(** Parse ELF bytes ({!Cet_elf.Reader.read}) and wrap the result. *)

val of_bytes_diag : string -> (t, Cet_util.Diag.t) result
(** The robust constructor for untrusted bytes: the lenient parse
    ({!Cet_elf.Reader.read_diag}), [Error] only when the ELF itself is
    unreadable.  Every analysis over the result computes what it would
    over {!of_bytes} of a well-formed image, but degrades instead of
    raising where the input is corrupt, reporting into {!diags}: a
    corrupt [.eh_frame] keeps its salvageable frame prefix
    ([eh/eh-frame]), unusable LSDAs are skipped one by one
    ([core/lsda-skipped]), and an unreadable PLT disables indirect-return
    filtering ([core/plt], see [Core.Parse.plt_st]). *)

val diags : t -> Cet_util.Diag.t list
(** What an {!of_bytes_diag} substrate has reported so far: the parse
    diagnostics, then each degradation in emission order.  Always [[]]
    for {!create}/{!of_bytes} substrates, which skip corrupt
    exception-table records silently and raise on an unreadable PLT. *)

val diag_collector : t -> Cet_util.Diag.Collector.t option
(** The collector behind {!diags}, [None] unless built by
    {!of_bytes_diag} — how analyses above this layer decide between
    degrading (and reporting here) and raising. *)

val reader : t -> Cet_elf.Reader.t
val text : t -> Cet_elf.Reader.section option

val sweep : t -> Linear.t
(** The linear sweep of [.text], computed on first call.  Before
    {!indexes}/{!facts} the same pass also harvests (and memoises) the
    indexes and facts, so a caller that needs all three walks [.text]
    once by sweeping first.  Raises [Invalid_argument] when the image has
    no [.text]. *)

val indexes : ?anchored:bool -> t -> indexes
(** The derived index arrays of the plain or anchored walk.  The plain
    ones are harvested by {!sweep} when it ran first, otherwise by the
    stream-free scan, which decodes the code bytes without ever
    allocating the stream — the results are identical either way.  The
    anchored ones always come from the anchored scan: an instruction
    that would straddle an end-branch pattern is discarded, and the walk
    resumes at the pattern, as it does after every decode failure
    ([Cet_x86.Decoder.walk]). *)

val facts : ?anchored:bool -> t -> facts
(** The sweep-level facts, memoised with {!indexes} by the same walk.
    Raises [Invalid_argument] when the image has no [.text] (like
    {!sweep}). *)

val in_text : facts -> int -> bool
(** Is the address inside the swept region?  ({!Linear.in_range} at the
    facts level.) *)

val text_end : facts -> int
(** [f_base + f_size]. *)

val landing_pads : t -> int array
(** Exception-handler landing pads from [.eh_frame] + [.gcc_except_table],
    sorted distinct; empty when either section is missing.  Decoded once:
    this is the codebase's one landing-pad decoder.  Out-of-range and
    corrupt LSDAs are skipped individually (reported as
    [core/lsda-skipped] by an {!of_bytes_diag} substrate). *)

val fde_starts : t -> int list
(** Sorted distinct [pc_begin] of every FDE, preferring the cheap
    [.eh_frame_hdr] search table like real tools do. *)

val fde_extents : t -> (int * int) list
(** Sorted distinct [(pc_begin, pc_begin + pc_range)] per FDE. *)
