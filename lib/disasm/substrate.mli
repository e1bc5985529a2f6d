(** Per-binary analysis substrate.

    Every identifier in this codebase — FunSeeker and the five baseline
    models — consumes the same raw facts about a binary: the parsed ELF,
    the linear sweep of [.text] (plus the end-branch-anchored variant on
    demand), the [.eh_frame]/LSDA-derived landing pads and FDE tables, and
    a handful of derived index arrays (end-branch addresses, direct-call
    sites and targets, direct-jump refs and targets).  Before the
    substrate, the evaluation harness paid the DISASSEMBLE pass once per
    tool — six sweeps of the same [.text] per binary.

    A substrate computes each fact lazily, exactly once, and memoises it
    for the lifetime of the binary.  Memoisation never invalidates: a
    substrate wraps one immutable parsed image, so every cached fact stays
    true forever.  Substrates are not thread-safe; the intended ownership
    is one substrate per binary per evaluation worker (domain).

    The derived indexes are sorted monomorphic [int array]s built in a
    single pass over the instruction stream — no intermediate lists, no
    polymorphic compares. *)

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
      (** desynchronisation events, exactly {!Linear.t.resync_errors} of
          the corresponding sweep *)
  f_insns : int;
      (** instructions decoded and kept, exactly the length of the
          corresponding sweep's stream (anchored: untrusted runs excluded)
          — per-binary profiles report this as decode volume *)
}
(** The sweep-level facts FunSeeker's analysis needs — deliberately not
    the instruction stream.  Computed either from a memoised sweep or by
    the stream-free scratch-core scan (which never materialises
    instruction records at all); the two agree exactly. *)

type t

val create : Cet_elf.Reader.t -> t
(** Wrap a parsed binary.  Nothing is computed until first use. *)

val of_bytes : string -> t
(** Parse ELF bytes ({!Cet_elf.Reader.read}) and wrap the result. *)

val reader : t -> Cet_elf.Reader.t
val text : t -> Cet_elf.Reader.section option

val sweep : t -> Linear.t
(** The linear sweep of [.text], computed on first call.
    Raises [Invalid_argument] when the image has no [.text]. *)

val sweep_anchored : t -> Linear.t
(** The end-branch-anchored sweep, memoised independently of {!sweep}. *)

val indexes : ?anchored:bool -> t -> indexes
(** The derived index arrays of the (plain or anchored) sweep.  When the
    corresponding sweep is already memoised they are built in one pass
    over its instruction stream; otherwise the stream-free scan over the
    decoder's scan core produces them directly from the code bytes, never
    materialising the stream — the results are identical either way. *)

val indexes_of_sweep : Linear.t -> indexes
(** Build the index arrays for a sweep outside any substrate — the legacy
    [analyze_sweep] entry points use this. *)

val facts : ?anchored:bool -> t -> facts
(** The sweep-level facts, memoised like {!indexes} and produced by the
    same scan when no sweep is cached.  Raises [Invalid_argument] when
    the image has no [.text] (like {!sweep}). *)

val facts_of_sweep : Linear.t -> facts
(** Project the facts out of an existing sweep. *)

val in_text : facts -> int -> bool
(** Is the address inside the swept region?  ({!Linear.in_range} at the
    facts level.) *)

val text_end : facts -> int
(** [f_base + f_size]. *)

val landing_pads : t -> int array
(** Exception-handler landing pads from [.eh_frame] + [.gcc_except_table],
    sorted distinct; empty when either section is missing.  Decoded once. *)

val fde_frames : t -> Cet_eh.Eh_frame.frame list
(** Decoded [.eh_frame] FDEs (empty without the section), memoised. *)

val fde_starts : t -> int list
(** Sorted distinct [pc_begin] of every FDE, preferring the cheap
    [.eh_frame_hdr] search table like real tools do. *)

val fde_extents : t -> (int * int) list
(** Sorted distinct [(pc_begin, pc_begin + pc_range)] per FDE. *)
