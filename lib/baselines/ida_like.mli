(** IDA-like identifier: recursive descent from the entry point with
    signature-based gap scanning.

    The model mirrors what the paper observes of IDA Pro 7.6 (§V-C): strong
    on directly reachable code (call-graph traversal plus FLIRT-style
    prologue signatures) but blind to functions reachable only through
    indirect branches — the cause of 96% of its false negatives — because
    it neither consumes [.eh_frame] aggressively nor treats end-branch
    markers as entry hints. *)

val analyze_st : Cet_disasm.Substrate.t -> int list
(** Identified function entries, sorted.  The sweep and index arrays come
    from the shared per-binary substrate. *)
