(** Analysis passes shared by the baseline identifiers (the IDA-, Ghidra-
    and FETCH-like models of §V-A2).

    Each pass is a genuine binary analysis over the linear-sweep stream —
    the models reproduce the *mechanisms* the paper attributes to each tool
    (frame-description harvesting, recursive traversal, prologue signature
    scanning, stack-height verification), not their outputs.

    A detail that matters throughout: ENDBR64/ENDBR32 decode as multi-byte
    NOPs on pre-CET processors, so legacy signature scanners treat a
    function's leading end-branch as padding and anchor their prologue
    match four bytes past the real entry.  That misplacement is the
    mechanism behind the pre-CET tools' degraded precision *and* recall on
    CET-enabled binaries — precisely the gap FunSeeker exploits. *)

type explored = {
  e_functions : int list;
      (** the in-range roots plus the direct-call targets of every walked
          instruction, sorted and distinct *)
  e_visited : Bytes.t;
      (** one byte per sweep instruction (by instruction index): ['\001']
          when the traversal walked it *)
}

val explore : Cet_disasm.Linear.t -> roots:int list -> explored
(** Recursive-descent traversal: explore from [roots], following fall-
    through, conditional and unconditional branches, and collecting direct
    call targets as function entries (transitively explored).  Indirect
    branches are dead ends — the limitation behind IDA's recall.  A step
    allocates nothing: the minor words are a constant plus the result
    list. *)

val extend : Cet_disasm.Linear.t -> explored -> roots:int list -> explored
(** [extend sw ex ~roots] resumes the traversal [ex] (of the same [sw])
    from more [roots], walking only instructions [ex] had not walked.
    When [roots] contains every in-range root of [ex], the result equals
    [explore sw ~roots], functions and visited bytes alike: both are the
    closure of one root set.  It updates [ex.e_visited] in place and
    returns that same map, so read [ex.e_visited] (say, for
    {!prologue_scan}) before extending.  Raises [Invalid_argument] when
    [ex.e_visited] is not one byte per instruction of [sw]. *)

val entry_main_root : Cet_disasm.Linear.t -> entry:int -> int option
(** The [__libc_start_main] idiom: scan the first instructions at the entry
    point for a code-address materialisation ([lea rdi, \[rip+d\]] on
    x86-64, [push imm32] on x86) and return the address — how real tools
    locate [main] in stripped binaries. *)

val prologue_scan :
  Cet_disasm.Linear.t ->
  known:int list ->
  aggressive:bool ->
  ?visited:Bytes.t ->
  ?suppress:(int * int) list ->
  unit ->
  int list
(** Signature-based gap scanning.  A hit is an instruction matching a
    prologue byte signature ([push rbp; mov rbp, rsp]; with [aggressive]
    also bare [push rbx/rbp] and [sub rsp, imm8]) placed right after
    padding, a return, or a legacy-NOP end-branch (see above — such hits
    land 4 bytes past the true entry).  [known] addresses, addresses inside
    [suppress] extents, and [visited] instruction addresses are skipped;
    the visited byte is tested before any code byte is read.  Raises
    [Invalid_argument] when [visited] is shorter than the stream. *)

val stack_height_tail_targets : Cet_disasm.Linear.t -> extents:(int * int) list -> int list
(** FETCH's refinement: walk each function extent once with abstract
    stack-height tracking and report the targets of stack-balanced
    unconditional jumps leaving the extent (tail-call targets), sorted
    and deduplicated. *)
