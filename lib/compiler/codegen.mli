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

    {!lower} encodes each instruction as it lowers it, straight into the
    [.text] section through {!Cet_x86.Asm}, fragment after fragment in
    layout order.  Landing pads, which go after their function's epilogue,
    are lowered into a side buffer that is appended once the epilogue is
    out.  Labels are ints.  Only the labels that cross fragments have
    names — functions, [.cold] and [.part.0] fragments, the PC thunks,
    [_start] — looked up in one table per program; the imports' PLT
    entries are the first labels. *)

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

val imports : Ir.program -> string list
(** A program's PLT entries, in order: [__libc_start_main], then
    {!Ir.collect_imports}. *)

val lower : Options.t -> Ir.program -> imports:string list -> base:int -> output
(** [lower opts p ~imports ~base] lowers a validated program into a
    [.text] section at virtual address [base].  [imports] is [imports p]:
    the [i]th entry's PLT address is label [i], which the caller defines.
    Raises [Invalid_argument] when {!Ir.validate} would reject [p]. *)
