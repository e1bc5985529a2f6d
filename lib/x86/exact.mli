(** The printer: exact decoding back into the {!Insn.t} AST — the inverse
    of {!Encoder} over the instruction subset the synthetic compiler emits.

    {!Decoder} decides where every instruction starts and what kind it is
    (all a linear sweep needs); this module reconstructs the full operands
    of an instruction the decoder found, so tools can print real assembly
    listings.  Encodings outside the modelled subset return [None], and
    {!disassemble} falls back to {!Decoder}'s classification.

    Invariant (tested property): for every [i : Insn.t] valid on [arch],
    [decode arch (Encoder.encode arch i) ~off:0 = Some (i, length)]. *)

val decode : Arch.t -> string -> off:int -> (Insn.t * int) option
(** [decode arch code ~off] parses one instruction at byte offset [off],
    returning the AST and its length. *)

val disassemble : Arch.t -> string -> base:int -> Decoder.ins -> string
(** [disassemble arch code ~base ins] renders [ins], an instruction
    {!Decoder} found in [code] (whose first byte lives at [base]), as text:
    {!Insn.pp} of the exact parse at its address when that parse covers
    the same bytes, else {!Decoder.kind_to_string} of its kind. *)
