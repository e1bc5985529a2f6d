(** ByteWeight-like identifier (Bao et al., USENIX Security 2014): a
    weighted prefix tree over function-start byte sequences, trained on
    binaries with ground truth and applied to stripped ones.

    Included as the representative learning-based approach of §VII-B.  The
    paper (citing Koo et al.) notes such models are "prone to errors when
    handling unseen binary patterns"; training on one compiler and testing
    on the other reproduces that brittleness, while FunSeeker needs no
    training at all. *)

type model

val max_depth : int
(** Prefix length learned (bytes). *)

val train : (Cet_disasm.Substrate.t * int list) list -> model
(** [train corpus] builds the weighted prefix tree from [(binary,
    entry addresses)] pairs, walking each binary's memoised
    {!Cet_disasm.Substrate.sweep}.  Negative examples are the other
    instruction boundaries of the same binaries. *)

val classify_st : ?threshold:float -> model -> Cet_disasm.Substrate.t -> int list
(** Score every instruction boundary of the substrate's [.text] sweep;
    keep addresses whose matched prefix is function-start-weighted above
    [threshold] (default 0.5). *)

val score : model -> string -> off:int -> float
(** Posterior that the byte sequence starting at [off] begins a function
    (0.5 when the tree has no evidence). *)
