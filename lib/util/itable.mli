(** Immutable set of disjoint half-open intervals, supporting O(log n)
    stabbing queries.  The prologue scan's suppression ranges (FDE extents)
    use it. *)

type t

val of_list_lenient : (int * int) list -> t
(** A table of the [(lo, hi)] pairs, each denoting \[lo, hi\); empty
    intervals are dropped.  Tolerant of corrupt inputs: overlapping
    intervals are resolved by keeping the first of each overlapping run
    in [lo] order (stable, hence deterministic) instead of raising.  For
    interval sets recovered from untrusted binaries — e.g. FDE extents out
    of a malformed [.eh_frame]. *)

val mem : t -> int -> bool
(** Does an interval contain the point? *)
