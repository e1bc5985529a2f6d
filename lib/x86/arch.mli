(** Target architecture selector shared by the whole pipeline. *)

type t = X86 | X64

val ptr_size : t -> int
(** Pointer width in bytes: 4 or 8. *)

val to_string : t -> string
(** ["x86"] or ["x86-64"]. *)
