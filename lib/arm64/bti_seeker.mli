(** FunSeeker for BTI-enabled AArch64 binaries — the §VI extension.

    The algorithm is the x86 one with the architecture doing part of the
    filtering: [bti c] marks call targets while jump-table cases and
    exception landing pads carry [bti j], so FILTERENDBR's landing-pad pass
    is unnecessary, and AArch64's [setjmp] needs no return marker at all.
    What remains is exactly E(c) ∪ C ∪ J′ with the same SELECTTAILCALL. *)

type result = {
  functions : int list;  (** identified entry addresses, sorted *)
  bti_c_total : int;
  bti_j_total : int;  (** jump markers observed (cases, landing pads) *)
  call_target_count : int;
  tail_calls_selected : int;
}

val analyze : Cet_elf.Reader.t -> result
(** Raises [Invalid_argument] when the image has no [.text]. *)
