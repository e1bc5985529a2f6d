(** Function-level intermediate representation consumed by the code
    generator.

    The IR captures exactly the source-level properties the paper's study
    tracks: linkage (static functions get no end-branch unless their address
    is taken), address-taking, calls to the predefined indirect-return
    functions, C++ try/catch regions (landing pads), switch statements
    (NOTRACK jump tables), tail calls, and hot/cold splitting fate. *)

type callee =
  | Local of string  (** direct call to a function in this program *)
  | Import of string  (** call through the PLT *)

type stmt =
  | Compute of int  (** [n] units of straight-line ALU work *)
  | Call of callee
  | Call_via_pointer of string
      (** materialise the named local function's address and call it
          indirectly (requires that function to be [address_taken]) *)
  | Store_fn_pointer of string
      (** take the named local function's address and store it to a stack
          slot (address-taking without an immediate call) *)
  | Indirect_return_call of string
      (** call an indirect-return import ([setjmp], [vfork], …): the code
          generator places an end-branch right after the call site *)
  | If_else of stmt list * stmt list
  | Loop of stmt list
  | Switch of stmt list list  (** dense switch lowered through a jump table *)
  | Try_catch of stmt list * stmt list list
      (** C++ [try] body and one handler block per [catch] clause; each
          handler becomes an end-branch-headed landing pad *)
  | Tail_call_site of string
      (** direct tail call: [jmp] to the named local function when sibling
          call optimisation is enabled, else a plain call+ret *)
  | Jump_to_part of string
      (** jump into the named function's [.part.0] fragment (outlined code
          shared across functions); degrades to a direct call of the whole
          function when splitting is disabled *)

type linkage = Exported | Static

type fragment_fate =
  | Keep_whole
  | Split_cold of stmt list
      (** the unlikely-path body, extracted into a [.cold] fragment at O2+
          (GCC); inlined behind a branch otherwise *)
  | Split_part of { shared_jump : bool; part_body : stmt list }
      (** partial inlining: [part_body] becomes a [.part.0] fragment reached
          by direct call; with [shared_jump] some other function additionally
          jump-references the fragment (via {!Jump_to_part}), the pattern
          behind FunSeeker's residual tail-call false positives *)

type func = {
  name : string;
  linkage : linkage;
  address_taken : bool;
  no_endbr : bool;
      (** intrinsic-like functions ([nocf_check]): entered only by direct
          call, no end-branch even when exported (the paper's 0.15%) *)
  dead : bool;  (** never referenced: present in the image, unreachable *)
  fate : fragment_fate;
  body : stmt list;
}

type lang = C | Cpp

type program = {
  prog_name : string;
  lang : lang;
  funcs : func list;  (** [main] must be among them *)
  extra_imports : string list;  (** imports beyond those found in bodies *)
}

val func :
  ?linkage:linkage ->
  ?address_taken:bool ->
  ?no_endbr:bool ->
  ?dead:bool ->
  ?fate:fragment_fate ->
  string ->
  stmt list ->
  func

val validate : program -> (unit, string) result
(** Check referential integrity: every [Local]/pointer target names a
    function of the program, [main] exists, address-taken targets are
    flagged [address_taken], and [Try_catch] only appears in C++. *)

val func_stmts : func -> stmt list
(** Body plus any split-off statements. *)

val collect_imports : program -> string list
(** All import names referenced by bodies plus [extra_imports], deduplicated
    in first-use order. *)
