(** Machine-code emission for {!Insn.t}.

    The encoder produces the byte sequences GCC/Clang-style code generators
    use on x86 and x86-64.  On x86-64, register-width operations use the
    64-bit operand size (REX.W), matching pointer-heavy compiler output.

    Operands must fit their fields; nothing is silently truncated.  A rel32
    must lie in \[-2{^31}, 2{^31}); any other 32-bit immediate or
    displacement in \[-2{^31}, 2{^32}), since it may be read as unsigned; a
    [Ret_imm] in \[0, 0xffff\]. *)

module Sink : sig
  (** A growable byte buffer that encodings are appended to.  One sink
      holds a whole section; it is owned by its caller, so no state is
      shared between domains. *)

  type t

  val create : int -> t
  (** [create n] is an empty sink with room for [n] bytes. *)

  val length : t -> int
  val contents : t -> string

  val add_string : t -> string -> unit

  val add_substring : t -> string -> int -> int -> unit
  (** [add_substring s str pos n] appends the [n] bytes of [str] from
      [pos].  Raises [Invalid_argument] unless they lie within [str]. *)

  val add_fill : t -> char -> int -> unit
  (** [add_fill s c n] appends [n] copies of [c]. *)

  val add_sink : t -> t -> unit
  (** [add_sink s src] appends the bytes written to [src]. *)

  val patch : t -> at:int -> width:int -> int -> unit
  (** [patch s ~at ~width v] overwrites the [width] bytes at offset [at]
      with the low [width] bytes of [v], little-endian.  Raises
      [Invalid_argument] unless they lie within the bytes written so far. *)
end

val encode_into : Sink.t -> Arch.t -> Insn.t -> unit
(** [encode_into s arch insn] appends the encoding of [insn] to [s], and
    allocates nothing (beyond growing [s]).  Raises [Invalid_argument] for
    encodings impossible on [arch] (extended registers or [notrack]
    RIP-bare jumps on x86, 16-byte NOPs, etc.) and for operands out of
    range; [s] is then left as it was. *)

val encode : Arch.t -> Insn.t -> string
(** [encode arch insn] is {!encode_into} on a fresh sink. *)
