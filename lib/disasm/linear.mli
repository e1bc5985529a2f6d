(** Linear-sweep disassembly (§IV-B of the paper).

    The sweep decodes from the start of a code region to its end; on a
    decode failure it advances one byte and resumes, exactly as FunSeeker's
    DISASSEMBLE does.  The result keeps the full instruction stream the
    baselines' analyses walk, as parallel arrays indexed by instruction
    number, plus a bucket index that finds an address's instruction in
    O(1) (about 2.4 words per instruction in all); FunSeeker's index
    arrays come from {!Substrate.indexes}.  Both are filled by the one
    decode loop, {!Cet_x86.Decoder.walk}. *)

type t = {
  arch : Cet_x86.Arch.t;
  base : int;  (** virtual address of the first byte *)
  size : int;
  code : string;  (** the swept bytes (byte signatures need them) *)
  addrs : int array;  (** instruction addresses, ascending *)
  targets : int array;
      (** {!Cet_x86.Decoder.scratch_target} per instruction: the branch
          target, [goto] slot or referenced address where the kind has
          one *)
  lens : Bytes.t;  (** one byte per instruction: its length *)
  tags : Bytes.t;
      (** one byte per instruction: the kind tag in the low nibble plus
          the notrack, goto and padding bits ({!Cet_x86.Decoder.stream}) *)
  buckets : Bytes.t;
      (** the address lookup: one little-endian int32 per 16 bytes of the
          region, entry [b] the index of the first instruction at or after
          [base + 16 * b] (about 0.11 words per instruction); built once by
          {!of_stream} *)
  resync_errors : int;
      (** desynchronisation events: maximal runs of undecodable bytes the
          sweep recovered from — one per run, however many bytes it
          spanned *)
}

val of_stream :
  Cet_x86.Arch.t ->
  base:int ->
  code:string ->
  Cet_x86.Decoder.stream ->
  resync_errors:int ->
  t
(** Wrap a finished walk's stream over [code] and build its bucket
    index.  Raises [Invalid_argument] when an
    instruction address lies outside [\[base, base + String.length code)]. *)

val length : t -> int
(** Number of instructions. *)

val addr : t -> int -> int
val len : t -> int -> int

val tag : t -> int -> int
(** The instruction's kind tag ([Decoder.tag_*]). *)

val padding : t -> int -> bool
(** Is the instruction NOP or INT3 fill ({!Cet_x86.Decoder.flag_padding})? *)

val target : t -> int -> int

val ins : t -> int -> Cet_x86.Decoder.ins
(** Instruction [i] as a record (allocates) — exactly the record the
    decoder returns for it. *)

val sweep : Cet_x86.Arch.t -> ?base:int -> string -> t
(** Disassemble a whole code blob (default [base] 0).  The [.text] of an
    ELF image is swept, once, by {!Substrate.sweep}. *)

val in_range : t -> int -> bool
(** Is the address inside the swept region? *)

(** {2 Sorted address arrays}

    The set algebra the analyses share: monomorphic [int array]s, no
    intermediate lists.  The index arrays themselves (end-branches, call
    and jump references) are built by {!Substrate.indexes}. *)

val sort_dedup_ints : int array -> int array
(** Sort ([Int.compare]) and deduplicate in place; returns the (possibly
    shorter) array. *)

val mem_sorted : int array -> int -> bool
(** Binary-search membership in a sorted address array. *)

val merge_sorted_dedup : int array -> int array -> int array
(** Union of two sorted distinct address arrays, sorted distinct.  Linear
    time; returns one of the inputs when the other is empty. *)

val first_index_at : t -> int -> int
(** Index of the first instruction at or after the address ({!length}
    when none).  O(1): the address's bucket entry, then at most 15
    steps. *)

val index_of : t -> int -> int
(** Index of the instruction starting exactly at the address, or [-1].
    O(1), as {!first_index_at}. *)
