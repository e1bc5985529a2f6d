(** IBT coverage audit: verify that a binary satisfies the structural
    contract CET enforcement relies on — every statically visible indirect
    branch target begins with an end-branch.

    This is the defensive-side complement of FunSeeker: the same syntactic
    facts the identifier exploits become properties a hardened binary must
    uphold (a `notrack`-free indirect jump to an unmarked target faults at
    run time with IBT enabled). *)

type violation = {
  v_target : int;  (** the address that should carry an end-branch *)
  v_reason : reason;
}

and reason =
  | Address_taken  (** materialised by [lea]/[mov]/[push] in code *)
  | Data_pointer  (** stored as a code pointer in [.rodata] *)
  | Landing_pad  (** C++ catch block entered by the unwinder *)
  | Plt_entry  (** PLT stubs are [jmp \[GOT\]] targets *)

type report = {
  violations : violation list;
  checked : int;  (** candidate targets examined *)
  marked : int;  (** candidates already carrying an end-branch *)
  superfluous : int;
      (** end-branches at none of: candidate target, function entry pattern,
          indirect-return site — dead markers that widen the attack surface *)
}

val audit_st : Cet_disasm.Substrate.t -> report
(** Audit one binary through its substrate (sweep, index arrays and
    landing pads shared with every other consumer).  Over a
    {!Cet_disasm.Substrate.of_bytes_diag} substrate corrupt exception
    tables and an unreadable PLT degrade into diagnostics.  Raises
    [Invalid_argument] when the image has no [.text]. *)

val reason_to_string : reason -> string
