(** Resilient work-queue scheduler: the general engine behind the
    evaluation harness (and, eventually, the [cetd] daemon).

    Two layers, usable together or separately:

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

    Scheduling is nondeterministic (stealing races are real races), but
    the {e result} is not: slot [k] of the returned array is written by
    exactly one worker, results are merged in index order, and a client
    folding partial accumulators over {!map}'s output gets byte-identical
    output whatever the worker count, steal pattern, or chaos seed.

    {2 The guard: {!guard}}

    Per-unit resilience for the work a pool item performs (the harness
    runs one {!guard} per binary inside one {!map} item per program):
    bounded retries with exponential backoff and jitter, a per-group
    circuit breaker, and graceful degradation ("shedding") under deadline
    pressure.

    The breaker is deterministic by construction: opening is triggered by
    consecutive-failure counts and the open→half-open transition by a
    {e count of skipped units} rather than wall-clock cooldown, so runs
    that submit the same units in the same per-group order trip the same
    breakers — the harness keys groups so that all of a group's units run
    inside a single plan item, which makes quarantine reports
    byte-identical across worker counts.

    Shedding consults {!Deadline.remaining_fraction}: when the calling
    worker's ambient deadline (armed pool-wide via [run_seconds]) has
    less than [shed_fraction] of its budget left, the guarded work runs
    in degraded mode ([~degraded:true]) — the client picks the cheaper
    analysis and records the downgrade.

    {2 Chaos}

    A seeded fault layer for soak testing: per-item slow-downs and
    transient dispatch faults (drawn from a hash of the chaos seed and
    the item index, so the draw is independent of which worker runs the
    item) and per-worker stalls.  Transient faults are injected {e
    before} the item's work function runs and retried by the scheduler
    itself, so chaos changes timing and scheduling — exercising steals,
    backoff, and the drain paths — but never results: a chaos run's
    output is byte-identical to the fault-free run. *)

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
  | Backoff of { key : string; attempt : int; delay_ns : int }
      (** attempt [attempt] of unit [key] failed retryably; the worker
          sleeps [delay_ns] before the next attempt *)
  | Breaker_open of { group : string; failures : int }
      (** [group] reached its consecutive-failure threshold (or its
          half-open probe failed) and now fast-fails new units *)
  | Breaker_probe of { group : string }
      (** an open breaker's skip budget is exhausted; this unit runs as
          the half-open probe *)
  | Breaker_close of { group : string }
      (** a half-open probe succeeded; [group] readmitted *)
  | Breaker_skip of { group : string; key : string }
      (** unit [key] was fast-failed without running *)
  | Shed of { key : string }
      (** deadline pressure: unit [key] runs in degraded mode *)
  | Chaos_stall of { worker : int; delay_ns : int }
  | Chaos_delay of { index : int; delay_ns : int }
  | Chaos_fault of { index : int; tries : int }
      (** seeded transient dispatch fault on item [index]; the scheduler
          backs off and redispatches without running the item's work *)

(** {1 Chaos configuration} *)

module Chaos : sig
  type t = {
    c_seed : int;
    c_stall_p : float;  (** per-dequeue worker-stall probability *)
    c_delay_p : float;  (** per-item slow-down probability *)
    c_fault_p : float;  (** per-item transient dispatch-fault probability *)
    c_max_delay_ns : int;  (** scale of every injected sleep *)
  }

  val default : seed:int -> t
  (** Modest fault rates (5% stalls, 10% delays, 5% transient faults)
      with sub-millisecond sleeps — enough to scramble scheduling in a
      soak without slowing it meaningfully. *)
end

(** {1 Circuit breaker} *)

module Breaker : sig
  type config = {
    threshold : int;  (** consecutive failures that open the breaker *)
    cooldown : int;  (** units fast-failed while open before a probe *)
  }

  type t
  (** One group's state.  Not domain-safe on its own; {!guard} serialises
      access under the scheduler's lock. *)

  (** What the breaker allows a new unit to do. *)
  type verdict =
    | Allow  (** closed: run normally *)
    | Probe  (** half-open: run as the recovery probe *)
    | Skip  (** open (or a probe is in flight): fast-fail *)

  val create : config -> t
  (** Fresh closed breaker.  Raises [Invalid_argument] when
      [threshold <= 0] or [cooldown < 0]. *)

  val ask : t -> verdict
  (** Consult (and advance) the state for one new unit: [Skip] also burns
      one unit of the open state's cooldown budget; the first ask after
      the budget is spent transitions to half-open and returns [Probe]. *)

  val success : t -> bool
  (** Record a unit success; returns [true] when this closed a half-open
      breaker (the probe succeeded). *)

  val failure : t -> bool
  (** Record a unit failure; returns [true] when this opened the breaker
      (threshold reached, or a half-open probe failed). *)

  val state_name : t -> string
  (** ["closed"], ["open"] or ["half-open"] — for tests and reports. *)
end

(** {1 Scheduler} *)

type config = {
  jobs : int;  (** worker domains, calling domain included *)
  cap : int;  (** admission bound: max items admitted-but-unstarted *)
  seed : int;  (** jitter, victim selection; results never depend on it *)
  attempts : int;  (** max {!guard} attempts per unit, [>= 1] *)
  backoff_base_ns : int;  (** first retry delay; doubles per attempt *)
  backoff_max_ns : int;  (** backoff ceiling *)
  breaker : Breaker.config option;  (** [None]: no circuit breaking *)
  run_seconds : float option;
      (** arm one {!Deadline} of this budget around every worker's whole
          loop — the run-wide deadline that shedding measures against *)
  shed_fraction : float option;
      (** degrade a guarded unit when the ambient deadline's
          {!Deadline.remaining_fraction} drops below this; [None] (or no
          ambient deadline) never sheds *)
  chaos : Chaos.t option;
}

val config :
  ?jobs:int ->
  ?cap:int ->
  ?seed:int ->
  ?attempts:int ->
  ?backoff_base_ns:int ->
  ?backoff_max_ns:int ->
  ?breaker:Breaker.config ->
  ?run_seconds:float ->
  ?shed_fraction:float ->
  ?chaos:Chaos.t ->
  unit ->
  config
(** Defaults: [jobs = Domain.recommended_domain_count ()], [cap = max 16
    (2 * jobs)], [seed = 0], [attempts = 2], backoff 1ms doubling to a
    50ms ceiling, no breaker, no run deadline, no shedding, no chaos. *)

type t
(** A scheduler instance: breaker registry, counters, observer.  Create
    one per run; {!map} may be called repeatedly on the same instance
    (stats accumulate). *)

val create : ?observer:(event -> unit) -> config -> t
(** Validates the config: [cap >= 1], [attempts >= 1], non-negative
    backoff, [run_seconds > 0] and probabilities in [\[0,1\]] when
    present — [Invalid_argument] otherwise. *)

(** Cumulative counters, readable at any point (atomically maintained). *)
type stats = {
  s_items : int;  (** items completed by {!map} calls *)
  s_steals : int;
  s_retries : int;  (** guard re-attempts after a backoff *)
  s_breaker_opens : int;
  s_breaker_skips : int;
  s_sheds : int;
  s_chaos_stalls : int;
  s_chaos_delays : int;
  s_chaos_faults : int;
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
    one [Array.init n f] would raise.  With [jobs = 1] and no chaos the
    items run sequentially on the calling domain, in index order. *)

(** {1 Guarded units} *)

(** How a guarded unit failed. *)
type unit_failure = {
  w_attempts : int;
      (** client attempts actually executed; [0] for a breaker skip *)
  w_error : exn;
  w_bt : Printexc.raw_backtrace;
  w_breaker_skip : bool;
      (** [true]: the work never ran; [w_error] is {!Breaker_tripped} *)
}

(** The work, its outcome, and what resilience machinery fired. *)
type 'a guarded = {
  g_value : 'a;
  g_attempts : int;  (** [1] when the first attempt succeeded *)
  g_degraded : bool;  (** the unit ran in shed (degraded) mode *)
}

exception Breaker_tripped of string
(** Carried in {!unit_failure.w_error} for fast-failed units; the payload
    is the group. *)

val guard :
  t ->
  key:string ->
  group:string ->
  ?retryable:(exn -> bool) ->
  (attempt:int -> degraded:bool -> 'a) ->
  ('a guarded, unit_failure) result
(** Run one unit of work with retries, breaking, and shedding.  [key]
    names the unit in events; [group] keys the circuit breaker (units of
    one group should run on one domain in a fixed order if downstream
    output must be partition-independent).  [retryable] (default: always)
    vetoes retries for permanent failures — the harness passes
    [Deadline.Expired _ -> false].  The work function receives the
    attempt number (from 1) and whether to run degraded; each attempt
    must be side-effect-free on failure (the harness evaluates into a
    fresh accumulator per attempt). *)

(** {1 Backoff arithmetic (exposed for property tests)} *)

val backoff_ns : base_ns:int -> max_ns:int -> attempt:int -> int
(** Deterministic exponential backoff: delay before the attempt after
    [attempt] — [base_ns * 2^(attempt-1)] capped at [max_ns];
    non-decreasing in [attempt], [0] when [base_ns = 0]. *)

val jittered_backoff_ns : Prng.t -> base_ns:int -> max_ns:int -> attempt:int -> int
(** {!backoff_ns} with multiplicative jitter, uniform in
    [\[delay/2, delay\]] — desynchronises retry stampedes without ever
    shortening the delay below half the deterministic schedule. *)
