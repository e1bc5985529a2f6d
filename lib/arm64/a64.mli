(** AArch64 instruction subset for the paper's §VI extension: Branch Target
    Identification (BTI) behaves like Intel's end-branch markers, so the
    FunSeeker algorithm ports almost verbatim.

    Instructions are fixed 4-byte words, which makes both encoding and
    linear-sweep disassembly far simpler than on x86. *)

type bti_kind =
  | Bti_c  (** valid [blr] target — function entries *)
  | Bti_j  (** valid [br] target — jump-table cases, landing pads *)
  | Bti_jc

type t =
  | Bti of bti_kind
  | Bl of int  (** word-aligned byte displacement from the instruction *)
  | B of int
  | Cbnz of int * int  (** register, byte displacement *)
  | Ret
  | Br of int  (** register *)
  | Blr of int
  | Adrp of int * int  (** register, page displacement in bytes (±4KiB units) *)
  | Add_imm of int * int * int  (** rd, rn, imm12 *)
  | Movz of int * int  (** rd, imm16 *)
  | Sub_sp of int  (** sub sp, sp, #imm *)
  | Add_sp of int
  | Stp_fp_lr of int  (** stp x29, x30, \[sp, #-imm\]! *)
  | Ldp_fp_lr of int  (** ldp x29, x30, \[sp\], #imm *)
  | Nop
  | Udf

val encode_bytes : t -> string
(** The little-endian 4-byte instruction word.  Raises [Invalid_argument]
    on out-of-range displacements or registers. *)

type kind =
  | K_bti of bti_kind
  | K_call of int  (** absolute target *)
  | K_jmp of int
  | K_cond of int
  | K_ret
  | K_indirect_jmp
  | K_indirect_call
  | K_adrp of int  (** absolute page address *)
  | K_other

type ins = { addr : int; kind : kind }

val sweep : string -> base:int -> ins list
(** Linear sweep: every whole word of the blob, in order.  Unrecognised
    words classify as [K_other] — on a fixed-width ISA there is nothing to
    resynchronise. *)
