(** Lowering from {!Ir} to x86 machine code.

    The code generator implements the end-branch insertion rules the paper
    measures (§II, §III-B):

    - an end-branch at the entry of every exported or address-taken function
      (unless flagged [no_endbr], modelling intrinsics), when
      [-fcf-protection=full];
    - an end-branch immediately after every call to one of GCC's predefined
      indirect-return functions ([setjmp] and friends);
    - an end-branch at the head of every C++ exception landing pad, placed
      after the function epilogue as GCC does;
    - [notrack]-prefixed indirect jumps for switch jump tables (no
      end-branches at case labels);
    - hot/cold splitting ([.cold]) and partial inlining ([.part.0])
      fragments at O2+ under the GCC persona;
    - tail calls ([jmp] in place of [call]+[ret]) when sibling-call
      optimisation is active;
    - the [__x86.get_pc_thunk] helpers on x86 PIE, including the variant the
      compiler emits without a symbol when only [_start] references it.

    The work is split in two.  {!prepare} does what no option changes, once
    per program: it validates the IR, collects its imports, gives every
    function, fragment and import an int label and reads each function's
    facts (leaf, GOT use, the seeds of its frame shape and instruction
    selection).  {!lower} then
    encodes each instruction as it lowers it, straight into the [.text]
    section through {!Cet_x86.Asm}, fragment after fragment in layout
    order.  Landing pads, which go after their function's epilogue, are
    lowered into a side buffer that is appended once the epilogue is out.
    The imports' PLT entries are the first labels.  ALU filler, most of
    the instructions, is copied from a table that encodes each of its
    forms once per architecture. *)

type label = Cet_x86.Asm.label

type lsda_site = {
  try_start : label;  (** opens the guarded region *)
  try_end : label;  (** closes it *)
  landing : label;  (** the landing pad *)
}

type fragment = {
  frag_name : string;  (** symbol name: ["foo"], ["foo.cold"], ["foo.part.0"] *)
  parent : string option;  (** owning function for [.cold]/[.part] fragments *)
  is_function : bool;  (** [true] for genuine functions (ground truth) *)
  has_symbol : bool;  (** [false] for the omitted-thunk corner case *)
  global : bool;  (** symbol binding: STB_GLOBAL vs STB_LOCAL *)
  start : label;  (** the fragment's first byte *)
  stop : label;  (** the byte past its last *)
  lsda_sites : lsda_site list;
  handler_count : int;
  tables : (label * label list) list;
      (** [.rodata] jump tables: table label → case labels (absolute
          entries) *)
}

type output = {
  text : Cet_x86.Asm.t;  (** [.text], every label field still a placeholder *)
  fragments : fragment list;  (** in [.text] layout order, [_start] first *)
  labels : int;  (** the label count: labels are [0 .. labels - 1] *)
}

type prepared
(** A validated program, ready to lower under any options: its name,
    language and imports, its functions' statements and facts, and the
    labels their names stand for.  Nothing in it is written after
    {!prepare} returns, so several domains may lower it at once. *)

val prepare : Ir.program -> prepared
(** Raises [Invalid_argument] when {!Ir.validate} rejects the program. *)

val prog_name : prepared -> string
val lang : prepared -> Ir.lang

val imports : prepared -> string list
(** The program's PLT entries, in order: [__libc_start_main], then
    {!Ir.collect_imports}.  The [i]th entry's PLT address is label [i],
    which the caller of {!lower} defines. *)

val lower : Options.t -> prepared -> base:int -> output
(** [lower opts p ~base] lowers [p] into a [.text] section at virtual
    address [base]. *)

val filler_entries : Cet_x86.Arch.t -> (Cet_x86.Insn.t * string) list
(** Every ALU filler instruction and the bytes the filler table holds for
    it on that architecture. *)
