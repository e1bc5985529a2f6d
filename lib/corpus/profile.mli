(** Suite descriptors: the population statistics that stand in for
    Coreutils 9.0, Binutils 2.37 and SPEC CPU 2017 (§III-A).

    The class weights encode Figure 3's partition of all functions over the
    three syntactic properties; the densities encode the end-branch location
    distribution of Table I (exception share, indirect-return share). *)

type class_weights = {
  w_endbr_call : float;  (** exported/addr-taken and direct-called *)
  w_endbr_only : float;  (** exported/addr-taken, never direct-branched *)
  w_endbr_jmp_call : float;
  w_endbr_jmp : float;
  w_call_only : float;  (** static, direct-called only *)
  w_jmp_call : float;
  w_jmp_only : float;  (** static, tail-called only *)
  w_dead : float;  (** unreferenced *)
}

type t = {
  suite : string;
  programs : int;
  lang_cpp_fraction : float;  (** fraction of C++ programs in the suite *)
  funcs_lo : int;
  funcs_hi : int;
  classes : class_weights;
  p_intrinsic : float;
      (** exported functions compiled without an end-branch (paper: 0.15%
          of non-static functions), carved out of the call-only class *)
  p_setjmp : float;  (** per-function probability of an indirect-return call *)
  tries_per_func : float;  (** mean try/catch blocks per function (C++) *)
  p_switch : float;  (** per-function probability of a dense switch *)
  p_split_cold : float;
  p_split_part : float;
  p_part_shared : float;  (** fraction of parts additionally jump-shared *)
  p_multi_tail : float;  (** tail targets referenced from two callers *)
  imports : string array;  (** libc-style import pool *)
}

val coreutils : t
val binutils : t
val spec : t

val all : t list

val scaled : float -> t -> t
(** Scale the suite size (program count) by a factor; per-binary function
    counts are preserved so population statistics stay representative. *)
