(** The cross-run analyzer behind [cetstat]: per-phase latency aggregates
    over manifest rows (via {!Cet_telemetry.Hist}), scheduler health
    derived from trace spans and counters, a content-hash-joined diff
    between two runs, and robust median/MAD anomaly detection.

    Every renderer emits fixed-key-order tables whose bytes depend only
    on the parsed artifacts — two runs whose artifacts are byte-identical
    (the [--no-timing] determinism guarantee) render byte-identically,
    whatever [--jobs] produced them. *)

(** {1 Per-phase latency aggregates} *)

type phase_stat = {
  ps_phase : string;
  ps_count : int;  (** rows with a sample for this phase *)
  ps_total_ms : float;
  ps_mean_ms : float;
  ps_p50_ms : float;
  ps_p99_ms : float;
  ps_max_ms : float;
}

val phase_stats : Manifest.row list -> phase_stat list
(** One stat per phase name in first-appearance order, plus a final
    ["total"] row over [total_ms].  Quantiles come from a
    {!Cet_telemetry.Hist} fed with the rows' times. *)

val render_phase_stats : phase_stat list -> string

(** {1 Scheduler health} *)

type health = {
  hw_workers : int;  (** sheets that ran at least one harness.binary span *)
  hw_wall_ms : float;  (** harness.wall_s gauge, when recorded *)
  hw_busy_ms : float;  (** summed harness.binary span time across workers *)
  hw_busy_fraction : float;
      (** busy / (workers * wall); 0 when wall is unknown *)
  hw_queue_wait_ms : float;
      (** per-worker average of (wall - busy): time a worker spent
          without a binary in hand — stealing, idling at the queue, or
          blocked on admission *)
  hw_binaries : int;  (** harness.binaries counter *)
  hw_steals : int;
  hw_steal_ratio : float;  (** steals per executed binary *)
  hw_max_pending : int;  (** admission high-water mark *)
}

val health_of_trace : Trace.t -> health
(** Derive scheduler health from a parsed trace: busy time from
    [harness.binary] spans grouped by sheet, event volumes from the
    [scheduler.*] counters. *)

val render_health : health -> string

(** {1 Cross-run diff} *)

type verdict_change = {
  vc_key : string;  (** the new run's row identity *)
  vc_field : string;
  vc_old : string;
  vc_new : string;
}

type phase_delta = {
  pd_key : string;
  pd_phase : string;  (** a phase name, or ["total"] *)
  pd_old_ms : float;
  pd_new_ms : float;
  pd_pct : float;  (** positive = slower in the new run *)
}

type diff = {
  d_old_digest : string;
  d_new_digest : string;
  d_matched : int;  (** binaries joined by content digest *)
  d_added : string list;  (** keys only in the new run, new order *)
  d_removed : string list;  (** keys only in the old run, old order *)
  d_changed : verdict_change list;
      (** joined rows whose analysis verdict (status, arch, decode
          volume, truth count) differs — timing never counts *)
  d_regressed : phase_delta list;  (** beyond [+threshold], sorted worst first *)
  d_improved : phase_delta list;  (** beyond [-threshold], sorted best first *)
  d_timed : int;  (** joined rows with positive time on both sides *)
}

val diff :
  ?threshold:float -> old_run:Manifest.t -> new_run:Manifest.t -> unit -> diff
(** Join two manifests by content digest (rows sharing a digest pair up
    in key order, so duplicated bytes cannot cross-match), compare
    verdicts, and compare [total_ms] and every phase on the same join,
    flagging changes beyond [threshold] percent (default 20).  Rows with
    non-positive time on either side are never timing-compared — an
    untimed ([--no-timing]) run diffs clean against anything on the
    timing axis. *)

val clean : diff -> bool
(** No verdict changes, no regressions, nothing added or removed — the
    [cetstat diff] exit-0 condition. *)

val render_diff : diff -> string
(** Deterministic report: digests, join coverage, verdict changes, and
    timing deltas.  Never mentions input paths or jobs, so
    diffing runs produced under different schedulers renders
    byte-identically. *)

(** {1 Robust anomaly detection} *)

type anomaly = {
  an_key : string;
  an_digest : string;
  an_metric : string;  (** ["total_ms"] or ["share:<phase>"] *)
  an_value : float;
  an_median : float;
  an_z : float;  (** robust z-score, always >= the cut that kept it *)
}

val robust_z : float array -> float array
(** Per-element median/MAD z-scores ([0.6745 * |x - median| / MAD],
    signed).  When the MAD is zero the mean absolute deviation stands in;
    when that is zero too every score is 0 (a constant population has no
    outliers). *)

val anomalies :
  ?z_cut:float -> Manifest.row list -> anomaly list * Manifest.row list
(** Median/MAD outliers (default cut 3.5) over per-binary wall time and
    per-phase time shares.  A practical-significance floor accompanies
    the z cut — total time must deviate by at least 10% of the median,
    a share by at least 0.05 — because a near-constant population's MAD
    is so small that clock-resolution noise passes any pure z cut.
    Only ["ok"] rows form the baseline {e and} the candidate set;
    quarantined rows are returned separately so the
    report can show them without letting their timings poison the
    statistics.  Anomalies sort by metric, then descending |z|, then
    key. *)

val render_anomalies : anomaly list * Manifest.row list -> string
