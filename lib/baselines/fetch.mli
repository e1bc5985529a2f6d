(** FETCH-like identifier (Pang et al., DSN 2021): function detection from
    exception-handling information.

    Harvests FDE [pc_begin] values from [.eh_frame] as function entries and
    adds tail-call targets found by a stack-height walk — the stack-height
    half of the "examining stack frame heights and calling conventions"
    step the paper credits for FETCH's cost (§V-D); the calling-convention
    check is not modelled.  Binaries without FDEs (Clang x86 C code) yield
    almost nothing, reproducing FETCH's recall collapse in Table III. *)

val analyze_st : Cet_disasm.Substrate.t -> int list
(** Identified function entries, sorted: the FDE starts in [.text] and
    the tail-call targets of {!Common.stack_height_tail_targets}, one walk
    per extent between consecutive FDE starts.  The sweep and FDE starts
    come from the shared per-binary substrate; the walk reads its cached
    instruction stream instead of re-disassembling each extent. *)
