(** Exporters over the registry: an aligned text report and a JSON-lines
    trace/summary writer.

    Both render the {e merged} view (all sheets folded in creation order;
    metric rows sorted by name), so output depends only on what was
    recorded, not on how the corpus was partitioned across workers.

    [timing:false] follows the harness convention for deterministic
    output: every time-derived figure renders as zero, the
    timing-dependent sections (per-worker throughput, gauges, GC) are
    omitted, and so is the counter of scheduling decisions
    ([scheduler.steals]), leaving only
    call/event counts — which are deterministic in the dataset seed — so
    the report is byte-identical whatever [~jobs] was. *)

val self_total_ns : unit -> int
(** Sum of exclusive (self) span times over the merged registry: the
    worker busy time covered by instrumentation. *)

val render : timing:bool -> unit -> string
(** The aligned text report: phase breakdown (calls, total/self ms, mean
    and p50/p90/p99 quantiles), counters, and — when [timing] — the
    scheduling counters, gauges, per-worker throughput, and
    [Gc.quickstat] numbers.  Empty sections
    are omitted entirely (no bare headers), and a phase row with zero
    samples renders [-] in the mean/quantile columns instead of a
    fabricated zero. *)

val write_trace : out_channel -> unit
(** JSON-lines: one [span] object per traced event (sheet by sheet, in
    start order), then one [phase] summary per span name, then [counter]
    and [gauge] objects.  Parseable line by line; [cetstat chrome]
    converts it to the Chrome trace-event format. *)

val openmetrics_label_escape : string -> string
(** Escape a label {e value} per the exposition format: backslash,
    double quote and line feed get escapes; everything else is verbatim. *)

val write_openmetrics : ?info:(string * string) list -> out_channel -> unit
(** Prometheus/OpenMetrics text exposition of the merged registry:
    counters as [cet_<name>_total], gauges as [cet_<name>], span
    histograms as [cet_phase_<name>_seconds] with cumulative
    power-of-two-edge [le] buckets, [_sum]/[_count], and a closing
    [# EOF].  Names are sanitized to the metric grammar ([[a-zA-Z0-9_]]
    under a [cet_] prefix).  A non-empty [info] list additionally emits a
    constant [cet_run_info{k="v",...} 1] gauge carrying run identity
    (manifest digest, seed) so scrapes are joinable with run manifests;
    label keys are used verbatim (callers pass grammar-safe keys), label
    values are escaped with {!openmetrics_label_escape}. *)
