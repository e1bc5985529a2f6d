(** Lock-free-per-domain metric registry.

    Mirrors the evaluation harness's Tables accumulator pattern: every
    domain that records anything owns a private {!sheet} (reached through
    domain-local storage, so the hot path takes no lock), and the sheets
    are merged deterministically when a report is rendered — counter and
    histogram merges are commutative sums, and every rendering sorts by
    metric name, so the merged view is independent of how work was
    partitioned across {!Cet_util.Work_queue} workers.

    The registry is globally disabled by default.  Disabled, every
    recording entry point is a single atomic load and a branch — no
    allocation, no clock read — so instrumented hot paths cost nothing in
    normal runs (the [funseeker.full] bench budget is < 2%). *)

type counter = { mutable n : int }
type gauge = { mutable g : float }

type metric = {
  hist : Hist.t;  (** span durations, ns *)
  mutable child_ns : int;
      (** time spent in nested spans across all executions; the span's
          exclusive (self) time is [Hist.sum hist - child_ns] *)
}

type event = {
  ev_name : string;
  ev_depth : int;  (** 0 for a top-level span *)
  ev_start_ns : int;  (** raw monotonic clock, comparable within a run *)
  ev_dur_ns : int;
  ev_sheet : int;  (** owning sheet id *)
}

type frame = { f_name : string; f_start : int; mutable f_child : int }

type sheet = {
  id : int;
  spans : (string, metric) Hashtbl.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  mutable events : event list;  (** newest first; only filled when tracing *)
  mutable stack : frame list;  (** open spans, innermost first *)
}

(** {1 Global switch} *)

val enabled : unit -> bool
val tracing : unit -> bool

val enable : ?trace:bool -> unit -> unit
(** Turn recording on ([trace] additionally buffers one {!event} per
    completed span for the JSON-lines exporter).  Call before spawning
    worker domains. *)

val disable : unit -> unit

val reset : unit -> unit
(** Clear every registered sheet in place (registrations survive, so
    domain-local sheets keep working after a reset). *)

(** {1 Sheets} *)

val ambient : unit -> sheet
(** The calling domain's private sheet, created and registered on first
    use. *)

val create : unit -> sheet
(** A fresh unregistered sheet (merge targets, tests). *)

val sheets : unit -> sheet list
(** Snapshot of all registered sheets in creation order.  Call after
    worker domains have been joined. *)

val merge : sheet -> sheet -> unit
(** [merge into src]: add [src]'s counters, gauges (pointwise max), span
    populations and events to [into]. *)

val merged : unit -> sheet
(** All registered sheets folded, in creation order, into a fresh sheet. *)

(** {1 Recording} *)

val count : ?n:int -> string -> unit
(** Bump a named counter on the ambient sheet ([n] defaults to 1).  No-op
    when disabled. *)

val gauge_set : string -> float -> unit
(** Set a named gauge on the ambient sheet.  Gauges merge by max.  No-op
    when disabled. *)

val find_counter : sheet -> string -> int
(** 0 when absent. *)

val span_names : sheet -> string list
(** Sorted names of recorded spans. *)
