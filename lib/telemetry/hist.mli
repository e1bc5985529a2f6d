(** Log-scale latency histogram.

    Samples are non-negative integers (nanoseconds in practice).  Buckets
    are powers of two, so the histogram covers the full int63 range in 63
    counters with a worst-case quantile error of one octave — tight enough
    to separate a microsecond phase from a millisecond one, which is all a
    phase breakdown needs.  Exact [min]/[max]/[sum] are kept alongside, and
    quantile estimates are clamped to [[min, max]], so degenerate
    populations (single sample, all-equal samples) report exactly. *)

type t

val nbuckets : int
(** 63. *)

val bucket_of : int -> int
(** The bucket index a sample lands in: bucket [i] covers [2^i <= v <
    2^(i+1)] (0 and 1 share bucket 0; the top bucket is clamped). *)

val bucket_count : t -> int -> int
(** Samples recorded in the given bucket index. *)

val bucket_upper_bound : int -> int
(** Inclusive upper edge of a bucket: [2^(i+1)-1], with the top bucket's
    edge clamped to [max_int].  Exporters build cumulative [le] bounds
    from this. *)

val create : unit -> t
val add : t -> int -> unit
(** Record one sample; negative values are clamped to 0. *)

val count : t -> int
val sum : t -> int
val min_value : t -> int
(** Smallest recorded sample; 0 when empty. *)

val max_value : t -> int
val mean : t -> float
(** 0.0 when empty. *)

val quantile : t -> float -> int option
(** [quantile t q] estimates the [q]-quantile ([q] clamped to [0,1]);
    [None] when the histogram is empty.  The estimate is the geometric
    midpoint of the bucket holding the target rank, clamped to the exact
    observed [[min, max]] range. *)

val merge : t -> t -> unit
(** [merge into src] adds [src]'s population to [into].  Commutative and
    associative in the merged contents, so worker sheets can be folded in
    any order. *)
