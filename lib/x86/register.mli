(** General-purpose integer registers of x86 / x86-64.

    In 32-bit mode only the first eight registers exist and they are read as
    their E-prefixed names; encodings (0–7) coincide, so a single type covers
    both architectures. *)

type t =
  | RAX
  | RCX
  | RDX
  | RBX
  | RSP
  | RBP
  | RSI
  | RDI
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

val index : t -> int
(** 4-bit encoding (0–15); the top bit goes into REX when needed. *)

val name64 : t -> string
(** e.g. ["rax"], ["r11"]. *)

val name32 : t -> string
(** e.g. ["eax"], ["r11d"]. *)

val of_index : int -> t
(** Inverse of {!index}. Raises [Invalid_argument] outside 0–15. *)
