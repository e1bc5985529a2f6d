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
    output whatever the worker count, steal pattern, or chaos seed.

    There is no retry: the work a client submits is deterministic, so the
    same input fails the same way on every attempt, and a client isolates
    a failing item itself (the harness quarantines a failing binary into
    its result instead of raising).

    {2 Shedding: {!shed}}

    Graceful degradation under deadline pressure: when the calling
    worker's ambient deadline (armed pool-wide via [run_seconds]) has
    less than [shed_fraction] of its budget left, {!shed} tells the
    client to run the cheaper analysis, and the client records the
    downgrade.

    {2 Chaos}

    A seeded timing-fault layer for soak testing: per-item slow-downs
    (drawn from a hash of the chaos seed and the item index, so the draw
    is independent of which worker runs the item) and per-worker stalls.
    Chaos changes timing and scheduling — exercising steals and the drain
    paths — but never results: a chaos run's output is byte-identical to
    the fault-free run. *)

(** {1 Events} *)

(** Scheduler happenings, delivered to the [observer] passed to
    {!create}.  This module sits below the telemetry library, so the
    owner of both layers (the harness, the fuzz engine) bridges events to
    the flight recorder and metric counters — the same inversion as
    {!Deadline.set_observer}.  Observers run on worker domains and must
    be domain-safe. *)
type event =
  | Steal of { thief : int; victim : int }
      (** worker [thief] took an item from the back of [victim]'s deque *)
  | Shed of { key : string }
      (** deadline pressure: unit [key] runs in degraded mode *)
  | Chaos_stall of { worker : int; delay_ns : int }
  | Chaos_delay of { index : int; delay_ns : int }

(** {1 Chaos configuration} *)

module Chaos : sig
  type t = {
    c_seed : int;
    c_stall_p : float;  (** per-dequeue worker-stall probability *)
    c_delay_p : float;  (** per-item slow-down probability *)
    c_max_delay_ns : int;  (** scale of every injected sleep *)
  }

  val default : seed:int -> t
  (** Modest rates (5% stalls, 10% delays) with sub-millisecond sleeps —
      enough to scramble scheduling in a soak without slowing it
      meaningfully. *)
end

(** {1 Scheduler} *)

type config = {
  jobs : int;  (** worker domains, calling domain included *)
  cap : int;  (** admission bound: max items admitted-but-unstarted *)
  seed : int;  (** victim selection; results never depend on it *)
  run_seconds : float option;
      (** arm one {!Deadline} of this budget around every worker's whole
          loop — the run-wide deadline that shedding measures against *)
  shed_fraction : float option;
      (** {!shed} when the ambient deadline's
          {!Deadline.remaining_fraction} drops below this; [None] (or no
          ambient deadline) never sheds *)
  chaos : Chaos.t option;
}

val config :
  ?jobs:int ->
  ?cap:int ->
  ?seed:int ->
  ?run_seconds:float ->
  ?shed_fraction:float ->
  ?chaos:Chaos.t ->
  unit ->
  config
(** Defaults: [jobs = Domain.recommended_domain_count ()], [cap = max 16
    (2 * jobs)], [seed = 0], no run deadline, no shedding, no chaos. *)

type t
(** A scheduler instance: configuration, counters, observer.  Create one
    per run; {!map} may be called repeatedly on the same instance (stats
    accumulate). *)

val create : ?observer:(event -> unit) -> config -> t
(** Validates the config: [jobs >= 1], [cap >= 1], [run_seconds > 0] and
    chaos probabilities in [\[0,1\]] when present — [Invalid_argument]
    otherwise. *)

(** Cumulative counters, readable at any point (atomically maintained). *)
type stats = {
  s_items : int;  (** items completed by {!map} calls *)
  s_steals : int;
  s_sheds : int;
  s_chaos_stalls : int;
  s_chaos_delays : int;
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
    usable.  Workers record backtraces when the caller does, and each
    runs under the call's [run_seconds] deadline.  With [jobs = 1], or
    while another call holds the workers, and no chaos, the items run
    sequentially on the calling domain, in index order. *)

val shed : t -> key:string -> bool
(** Whether unit [key], about to run on the calling worker, should run
    degraded: [true] when [shed_fraction] is set and the ambient
    deadline's remaining fraction is below it.  A [true] answer is
    counted in {!stats} and reported as a {!Shed} event. *)
