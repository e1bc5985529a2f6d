(** Work-queue scheduler: the general engine behind the evaluation
    harness and the mutation fuzzer.

    {2 The pool: {!map}}

    A multi-producer Domain pool with one deque per worker and work
    stealing: the calling domain acts as the producer, feeding item
    indices round-robin into the per-worker deques, while every worker
    (the producer included) pops from the front of its own deque and
    steals from the back of a sibling's when it runs dry.  Admission is
    bounded: at most [cap] items may sit admitted-but-unstarted, and a
    full queue exerts backpressure by turning the producer into a worker
    until depth drops — the producer never blocks idle and never grows
    the queue past the cap.

    The worker domains belong to the process, not to a call: they are
    spawned on first need, up to the largest [jobs - 1] any call has
    asked for, park between calls, and serve every later {!map}.  A
    domain's heap stays with it, so a caller that keeps small results
    across many calls does not pin a fresh domain's heap pools per call
    (on OCaml 5.1 an exited domain's pools are not reused while any
    object allocated there is live).  One call holds the workers at a
    time; a {!map} issued while they are held — from inside an item, or
    from a second domain — runs on its caller alone.

    Scheduling is nondeterministic (stealing races are real races), but
    the {e result} is not: slot [k] of the returned array is written by
    exactly one worker, results are merged in index order, and a client
    folding partial accumulators over {!map}'s output gets byte-identical
    output whatever the worker count or steal pattern.

    There is no retry: the work a client submits is deterministic, so the
    same input fails the same way on every attempt, and a client isolates
    a failing item itself (the harness quarantines a failing binary into
    its result instead of raising). *)

(** {1 Events} *)

(** Scheduler happenings, delivered to the [observer] passed to
    {!create}.  This module sits below the telemetry library, so the
    owner of both layers (the harness, the fuzz engine) bridges events to
    the metric counters.  Observers run on worker domains and must be
    domain-safe. *)
type event =
  | Steal of { thief : int; victim : int }
      (** worker [thief] took an item from the back of [victim]'s deque *)

(** {1 Scheduler} *)

type config = {
  jobs : int;  (** worker domains, calling domain included *)
  cap : int;  (** admission bound: max items admitted-but-unstarted *)
  seed : int;  (** victim selection; results never depend on it *)
}

val config : ?jobs:int -> ?cap:int -> ?seed:int -> unit -> config
(** Defaults: [jobs = Domain.recommended_domain_count ()], [cap = max 16
    (2 * jobs)], [seed = 0]. *)

type t
(** A scheduler instance: configuration, counters, observer.  Create one
    per run; {!map} may be called repeatedly on the same instance (stats
    accumulate). *)

val create : ?observer:(event -> unit) -> config -> t
(** Validates the config: [jobs >= 1] and [cap >= 1] —
    [Invalid_argument] otherwise. *)

(** Cumulative counters, readable at any point (atomically maintained). *)
type stats = {
  s_items : int;  (** items completed by {!map} calls *)
  s_steals : int;
  s_max_pending : int;  (** admission high-water mark; never exceeds [cap] *)
}

val stats : t -> stats

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] evaluates [f k] for [k in 0 .. n-1] across the pool and
    returns the results in index order, exactly as [Array.init n f]
    would.  If some [f k] raises, new work stops being issued, admitted
    items above the lowest failure are dropped while those below it still
    run, every worker drains, and the exception of the lowest failing
    index is re-raised (with its backtrace) on the calling domain — the
    one [Array.init n f] would raise.  An exception that escapes a
    worker's loop rather than an item (a raising observer) stops the
    call and is re-raised in the caller the same way; the workers stay
    usable.  Workers record backtraces when the caller does.  With
    [jobs = 1], or while another call holds the workers, the items run
    sequentially on the calling domain, in index order. *)
