(** Deterministic pseudo-random number generation.

    All randomness in the corpus generator flows through this module so that
    the whole dataset is reproducible from a single integer seed.  The
    implementation is SplitMix64 (Steele et al., OOPSLA 2014): one 64-bit
    state word, advanced by a constant and mixed on every draw. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int g n] is uniform in \[0, n). Requires [n > 0]. *)

val in_range : t -> int -> int -> int
(** [in_range g lo hi] is uniform in \[lo, hi\] inclusive.
    Requires [lo <= hi]. *)

val float : t -> float
(** Uniform in \[0, 1). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance g p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val choose_weighted : t -> ('a * float) list -> 'a
(** [choose_weighted g items] picks proportionally to the (positive)
    weights. Requires a non-empty list with positive total weight. *)
