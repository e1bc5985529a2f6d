(** Ghidra-like identifier: aggressive [.eh_frame] harvesting plus
    recursive traversal and prologue pattern matching.

    The model reproduces the mechanisms the paper attributes to Ghidra
    10.0.4 (§V-C): it leans on FDE records (hence near-perfect recall on
    x86-64 and on GCC binaries, and a collapse on Clang x86 C binaries that
    carry none), complements them with call-graph traversal from the entry
    point, and runs a looser prologue scanner on x86 — the source of its
    extra false positives there. *)

val analyze_st : Cet_disasm.Substrate.t -> int list
(** Identified function entries, sorted.  The sweep and FDE extents come
    from the shared per-binary substrate. *)
