(** Per-domain flight recorder.

    A fixed-size ring buffer of structured events — phase begin/end (fed
    by {!Span}), diagnostics, deadline-poll slack, harness quarantines,
    steals and sheds — one ring per domain, drop-oldest.  When a binary
    crashes or a fuzz mutant escapes, the worker's last-N events are its
    black box: {!Harness.write_quarantine} and the fuzzer's crash report
    attach them, so a post-mortem sees what the domain was doing in the
    moments before the failure without re-running anything.

    The journal follows the {!Registry} guard discipline: globally
    disabled by default, and {!record} behind a disabled flag is a single
    atomic load — hot call sites guard with [if Journal.enabled () then
    Journal.record ...] so the disabled path is one branch and zero
    allocation.  Enabled recording writes into a preallocated ring slot
    (one event record allocation, no growth, no locks — the ring is
    domain-private like a metric sheet). *)

type kind =
  | Phase_begin  (** a {!Span} opened; [v] unused *)
  | Phase_end  (** a {!Span} closed; [v] is the duration in ns *)
  | Diag  (** a diagnostic was emitted; name is [domain/code] *)
  | Deadline_slack
      (** a {!Cet_util.Deadline} poll observed [v] ns of remaining budget *)
  | Quarantine  (** the harness gave up on a binary *)
  | Steal
      (** the scheduler stole an item; name is [thief<-victim] worker ids *)
  | Shed  (** deadline pressure degraded a unit to the cheaper analysis *)

val kind_label : kind -> string
(** Stable kebab-case name, used by every exporter. *)

val kind_of_label : string -> kind option
(** Inverse of {!kind_label} — the reading side of the quarantine/crash
    JSONL round-trip. *)

type event = {
  j_kind : kind;
  j_name : string;  (** phase name, [domain/code], binary identity, ... *)
  j_v : int;  (** kind-specific payload; 0 when unused *)
  j_ns : int;  (** raw monotonic clock, comparable within a run *)
  j_ring : int;  (** owning ring id = the domain's {!Registry} sheet id *)
}

type ring = {
  r_id : int;
  r_cap : int;
  r_buf : event array;
  mutable r_next : int;  (** total events ever recorded; slot = next mod cap *)
}

val default_capacity : int
(** 256 events per domain. *)

(** {1 Global switch} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn recording on.  [capacity] (default {!default_capacity}) sizes
    every ring created from then on; a domain whose ring predates a
    capacity change transparently re-registers a fresh ring on its next
    record.  Raises [Invalid_argument] when [capacity <= 0]. *)

val disable : unit -> unit

val reset : unit -> unit
(** Empty every registered ring in place. *)

(** {1 Recording} *)

val record : ?v:int -> kind -> string -> unit
(** Append one event to the calling domain's ring, dropping the oldest
    event once the ring is full.  No-op when disabled — but guard hot
    call sites with {!enabled} so the disabled path never evaluates the
    arguments. *)

(** {1 Reading} *)

val recent : ?n:int -> unit -> event list
(** The calling domain's buffered events, oldest first ([n] keeps only
    the newest [n]).  [[]] when disabled. *)

val mark : unit -> int
(** The calling domain's current event cursor (0 when disabled); pass to
    {!count_kind_since} to count events recorded after this point. *)

val count_kind_since : int -> kind -> int
(** Events of the given kind still visible in the calling domain's ring
    that were recorded at or after the given {!mark}. *)

val rings : unit -> ring list
(** Snapshot of all registered rings in id order — for exporters; call
    after worker domains have been joined. *)

val ring_events : ring -> event list
(** A ring's buffered events, oldest first. *)

val ring_create : id:int -> capacity:int -> ring
(** A fresh unregistered ring (tests). *)

val ring_record : ring -> kind:kind -> name:string -> v:int -> unit
(** Record straight into a given ring (tests). *)

val event_to_string : event -> string
(** One aligned human-readable line (no trailing newline). *)
