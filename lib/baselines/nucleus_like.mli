(** Nucleus-like identifier (Andriesse et al., EuroS&P 2017):
    compiler-agnostic function detection through intra-procedural
    control-flow analysis.

    The §VII-B static-analysis representative: build basic blocks over the
    whole text, connect them with intra-procedural edges (fall-through and
    conditional branches; unconditional jumps when they look intra-
    procedural), group blocks into weakly-connected components, and report
    each component's entry block — the block no intra-procedural edge
    enters — as a function. *)

val analyze_st : Cet_disasm.Substrate.t -> int list
(** Identified function entries, sorted, from the substrate's sweep. *)
