(** Linear-sweep disassembly (§IV-B of the paper).

    The sweep decodes from the start of a code region to its end; on a
    decode failure it advances one byte and resumes, exactly as FunSeeker's
    DISASSEMBLE does.  The result keeps the full instruction stream (used by
    the baselines' analyses) plus the index structures FunSeeker needs. *)

type t = {
  arch : Cet_x86.Arch.t;
  base : int;  (** virtual address of the first byte *)
  size : int;
  code : string;  (** the swept bytes (byte signatures need them) *)
  insns : Cet_x86.Decoder.ins array;  (** in address order *)
  resync_errors : int;
      (** desynchronisation events: maximal runs of undecodable (or, for
          the anchored sweep, untrusted) bytes the sweep recovered from —
          one per run, however many bytes it spanned *)
}

val sweep : Cet_x86.Arch.t -> ?base:int -> string -> t
(** Disassemble a whole code blob (default [base] 0). *)

val sweep_text : Cet_elf.Reader.t -> t
(** Sweep the [.text] section of an ELF image.
    Raises [Invalid_argument] when the image has no [.text]. *)

val sweep_anchored : Cet_x86.Arch.t -> ?base:int -> string -> t
(** CET-aware sweep (the §VI superset-disassembly direction): end-branch
    byte patterns are unambiguous 4-byte markers, so every occurrence is
    forced to be an instruction boundary.  When a decoded instruction
    would straddle an anchor — which happens when inline data (e.g. a
    jump table in [.text]) desynchronised the sweep — the sweep discards
    it and restarts at the anchor.  On binaries without inline data the
    result equals {!sweep}. *)

val sweep_text_anchored : Cet_elf.Reader.t -> t

val anchor_offsets : Cet_x86.Arch.t -> string -> int array
(** Offsets of every end-branch byte pattern (F3 0F 1E FA/FB), ascending —
    the SWAR scan ({!Prescan.anchor_offsets}). *)

val in_range : t -> int -> bool
(** Is the address inside the swept region? *)

val endbr_addrs : t -> int list
(** Addresses of end-branch markers matching the architecture
    ([endbr64] on x86-64, [endbr32] on x86), in address order. *)

val call_targets : t -> int list
(** Distinct direct-call targets that land inside the swept region,
    sorted. *)

val jmp_targets : t -> int list
(** Distinct targets of unconditional direct jumps landing inside the
    region, sorted.  Conditional branches are excluded: only unconditional
    jumps can be tail calls. *)

val call_sites : t -> (int * int * int) list
(** Direct call sites as [(site_addr, return_addr, target)] — including
    calls leaving the region (PLT calls), which FILTERENDBR inspects. *)

val jmp_refs : t -> (int * int) list
(** Unconditional direct jumps as [(site_addr, target)], targets inside the
    region only. *)

val insn_at : t -> int -> Cet_x86.Decoder.ins option
(** The instruction starting exactly at the given address, if any. *)

(** {2 Array-level accessors}

    The zero-copy versions of the index extractors above: one pass over the
    instruction stream into a monomorphic [int array], no intermediate
    lists.  {!Substrate} memoises these per binary. *)

val endbr_array : t -> int array
(** {!endbr_addrs} as an array (address order). *)

val call_target_array : t -> int array
(** {!call_targets} as a sorted distinct array. *)

val jmp_target_array : t -> int array
(** {!jmp_targets} as a sorted distinct array. *)

val sort_dedup_ints : int array -> int array
(** Sort ([Int.compare]) and deduplicate in place; returns the (possibly
    shorter) array. *)

val mem_sorted : int array -> int -> bool
(** Binary-search membership in a sorted address array. *)

val merge_sorted_dedup : int array -> int array -> int array
(** Union of two sorted distinct address arrays, sorted distinct.  Linear
    time; returns one of the inputs when the other is empty. *)

val first_index_at : t -> int -> int
(** Index into [insns] of the first instruction at or after the address
    ([Array.length insns] when none). *)

val index_of : t -> int -> int option
(** Index of the instruction starting exactly at the address, if any. *)

val sorted_distinct : int list -> int list
(** [List.sort_uniq Int.compare]. *)
