(** FETCH-like identifier (Pang et al., DSN 2021): function detection from
    exception-handling information.

    Harvests FDE [pc_begin] values from [.eh_frame] as function entries and
    refines them with a stack-height analysis that verifies tail-call
    targets — the "examining stack frame heights and calling conventions"
    step the paper credits for FETCH's cost (§V-D).  Binaries without FDEs
    (Clang x86 C code) yield almost nothing, reproducing FETCH's recall
    collapse in Table III. *)

val analyze_st : ?passes:int -> Cet_disasm.Substrate.t -> int list
(** Identified function entries, sorted.  [passes] (default 22) controls the
    refinement iterations.  The sweep and FDE starts come from the shared
    per-binary substrate; the refinement passes walk its cached
    instruction stream instead of re-disassembling each extent. *)
