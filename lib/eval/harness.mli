(** The end-to-end experiment driver: walks the dataset's work plan and
    fills every table/figure accumulator, optionally across several
    domains.

    [scale] trades corpus size for wall-clock time; 1.0 builds suites with
    the paper's program counts.  All numbers are deterministic in [seed]
    except the timing columns (which [timing = false] pins to zero).

    Every entry point takes a [?jobs] parameter (default:
    [Domain.recommended_domain_count ()]).  Parallel runs are exact: each
    worker folds a private accumulator over the plan items it claims, and
    the main domain merges the partial results in plan order, so the
    output is byte-identical to [~jobs:1] whichever way the corpus was
    partitioned. *)

type options = {
  seed : int;
  scale : float;
  progress : bool;
      (** print a live [done/total  rate  ETA] status line to stderr,
          finishing with one exact [done/total] summary line that also
          reports quarantined and retried binary counts (nothing is
          printed for an empty plan) *)
  timing : bool;
      (** measure per-binary wall-clock for Table III; [false] zeroes the
          timing columns and makes rendered output fully deterministic *)
  max_seconds : float option;
      (** per-binary wall-clock budget ({!Cet_util.Deadline}); an expired
          binary is quarantined without retry *)
  keep_going : bool;
      (** [true] (the default): a failing binary is quarantined into
          {!results.failures} and the run continues.  [false] (fail-fast):
          the first failure re-raises with its backtrace. *)
  fault : (Cet_corpus.Dataset.binary -> bool) option;
      (** test hook: binaries selected by this predicate fail with an
          injected exception, exercising the quarantine path *)
  triage : bool;
      (** error forensics: rerun the full FunSeeker configuration with
          decision provenance on every binary and bucket each false
          positive / false negative by root cause into
          {!results.triage}.  Off by default — the extra provenance pass
          costs a second full-config run per binary. *)
  profile : bool;
      (** per-binary profiling: emit one {!profile} record per evaluated
          binary into {!results.profiles} (identity, phase time split,
          decode volume, retry/quarantine status).  Off by default; the
          disabled path adds no allocation to the per-binary loop. *)
  chaos : int option;
      (** seeded scheduler-level fault injection
          ({!Cet_util.Work_queue.Chaos.default}): worker stalls, per-item
          delays, transient dispatch faults.  Chaos changes timing and
          scheduling but never results — the tables are byte-identical to
          a fault-free run whatever the seed. *)
  run_seconds : float option;
      (** run-wide wall-clock budget, armed as one
          {!Cet_util.Deadline} around every worker's whole loop; the
          shedding policy measures remaining budget against it.  Distinct
          from [max_seconds], which bounds a single binary. *)
  shed_fraction : float;
      (** degrade a binary to the anchored-only analysis when the
          run-wide deadline's remaining-budget fraction drops below this
          (0.1 by default); only meaningful when [run_seconds] is set *)
  breaker : Cet_util.Work_queue.Breaker.config option;
      (** per-program circuit breaker: after [threshold] consecutive
          failures the program's remaining binaries are fast-failed
          ([cooldown] of them, then one probe).  [None] disables it. *)
}

val default_options : options
(** [keep_going = true], no deadline, no fault injection. *)

(** One quarantined binary: identity, the error of its final attempt, and
    that attempt's backtrace. *)
type failure = {
  f_suite : string;
  f_program : string;
  f_config : string;  (** {!Cet_compiler.Options.to_string} descriptor *)
  f_attempts : int;
      (** 1 for non-retryable failures (deadline), 2 after a retry, 0 for
          a circuit-breaker fast-fail (the work never ran) *)
  f_error : string;
  f_backtrace : string;
  f_journal : Cet_telemetry.Journal.event list;
      (** the worker's last flight-recorder events at quarantine time (its
          black box); [[]] when the journal is disabled *)
}

(** One evaluated binary's profile: identity, decode volume, the phase
    time split, and how its evaluation ended.  Under [timing = false]
    every clock figure is zero, so the row is deterministic in the seed. *)
type profile = {
  p_suite : string;
  p_program : string;
  p_config : string;  (** {!Cet_compiler.Options.to_string} descriptor *)
  p_arch : string;  (** ["x86"] or ["x64"] *)
  p_digest : string;
      (** {!content_digest} of the stripped ELF bytes — the binary's
          stable content identity, present whatever [p_status] *)
  p_text_bytes : int;  (** [.text] size ({!Cet_disasm.Substrate.facts}) *)
  p_insns : int;  (** instructions decoded by the linear sweep *)
  p_resyncs : int;  (** sweep desynchronisation events *)
  p_truth : int;  (** deduplicated ground-truth entry count *)
  p_diags : int;  (** journal-observed diagnostics during this binary *)
  p_attempts : int;  (** 1, or 2 when the first attempt was retried *)
  p_status : string;
      (** ["ok"], ["shed"] (evaluated degraded under deadline pressure),
          ["quarantined"], or ["breaker-skip"] *)
  p_total_ms : float;
  p_phases : (string * float) list;
      (** fixed vocabulary in fixed order — study, configs, funseeker,
          ida, ghidra, fetch, triage — each in milliseconds *)
}

val profile_phase_names : string list

val content_digest : string -> string
(** Hex MD5 of a binary's stripped ELF bytes: its content identity.  The
    corpus is deterministic in the seed, so the digest is stable across
    runs, [--jobs], and [--chaos] — it keys every cross-run join
    ([cetstat diff]) and, later, the content-addressed result store. *)

val ewma_update : alpha:float -> prev:float option -> float -> float
(** One exponentially-weighted-moving-average step: the first observation
    seeds the average ([prev = None]), later ones blend with weight
    [alpha] on the new sample.  The [--progress] ETA uses this over
    inter-milestone throughput. *)

type results = {
  table1 : Tables.Table1.t;
  fig3 : Tables.Fig3.t;
  table2 : Tables.Table2.t;
  table3 : Tables.Table3.t;
  triage : Tables.Triage.t;
      (** root-cause buckets per configuration; empty unless
          {!options.triage} was set *)
  binaries : int;  (** successfully evaluated binaries *)
  functions : int;  (** total ground-truth functions across the dataset *)
  failures : failure list;  (** quarantined binaries, in plan order *)
  profiles : profile list;
      (** per-binary profiles in plan order (including quarantined
          binaries, with zeroed analysis figures); empty unless
          {!options.profile} was set *)
}

val run :
  ?profiles:Cet_corpus.Profile.t list ->
  ?configs:Cet_compiler.Options.t list ->
  ?jobs:int ->
  options ->
  results
(** Fault-isolated: each binary is evaluated into a fresh accumulator that
    is merged only on success, so a crashing or injected-fault binary
    contributes nothing (no partial table rows).  Since PR 8 the engine is
    {!Cet_util.Work_queue}: a work-stealing Domain pool with bounded
    admission runs the plan items, and each binary is a guarded unit —
    retried once with backoff (deadline expiries are not), circuit-broken
    per program, shed to the anchored-only analysis under [run_seconds]
    pressure — then quarantined under [keep_going], or re-raised under
    fail-fast.  Scheduler events flow into {!Cet_telemetry.Journal} and
    the metric registry.  The merged tables are byte-identical across
    [jobs] — and across any [chaos] seed — for the surviving set. *)

(** The scheduler's Journal/Registry bridge is
    {!Cet_telemetry.Bridge.scheduler_observer}, shared with the fuzz
    driver. *)

val render_all : results -> string

val render_failures : results -> string
(** Human-readable quarantine summary; [""] when nothing failed. *)

val quarantine_schema : int
(** Version stamped into every quarantine row's [schema] field. *)

val write_quarantine : out_channel -> results -> unit
(** One JSON object per failure per line ([schema]/[suite]/[program]/
    [config]/[attempts]/[error]/[backtrace]/[journal]) — the
    [--quarantine-out] report format.  [journal] is the failure's
    flight-recorder black box, one object per event. *)

val read_quarantine : string -> (failure list, string) result
(** Parse a whole quarantine JSONL document back into failure records —
    the round-trip inverse of {!write_quarantine} up to the journal
    events' ring ids (not serialised; readers see [-1]).  Rejects rows
    whose [schema] differs from {!quarantine_schema}. *)

val write_profiles : out_channel -> results -> unit
(** One JSON object per profile per line, keys in a fixed order ([suite],
    [program], [config], [arch], [digest], [text_bytes], [insns],
    [resyncs], [truth], [diags], [attempts], [status], [total_ms],
    [phases]) — the [--profile-out] report format.  Rows are in plan
    order and, under [timing = false], byte-identical across [~jobs]. *)

val manifest_schema : int
(** Version stamped into every manifest row's [schema] field. *)

val profile_key : profile -> string
(** ["suite/program[config]"] — the identity half of a manifest row. *)

val run_digest : results -> string
(** Hex MD5 over every profile row's ["key=digest"] line in plan order:
    the whole run's content identity.  Volatile fields (status, attempts,
    timings) are excluded, so two runs over the same corpus share the
    digest whatever their [--jobs], [--chaos] seed, or shedding.
    Meaningful only when {!options.profile} was on (the digest of an
    unprofiled run covers zero rows). *)

type manifest_meta = {
  m_experiment : string;  (** the positional EXPERIMENT argument *)
  m_jobs : int;
  m_chaos : int option;
  m_profile_art : string option;  (** [--profile-out] path, when given *)
  m_quarantine_art : string option;
  m_trace_art : string option;
  m_metrics_art : string option;
}

val write_manifest : out_channel -> meta:manifest_meta -> options -> results -> unit
(** The [--manifest-out] run manifest: one schema-tagged [kind:"run"]
    header (run digest, options, corpus scale/jobs/chaos seed, pointers
    to the run's other artifacts), then one [kind:"binary"] row per
    profile (identity, content digest, status/attempts, decode volume).
    Parsed back by [Cet_obs.Manifest].  Requires {!options.profile};
    under [timing = false] the binary rows are byte-identical across
    [--jobs] and [--chaos]. *)

val top_slow : results -> int -> profile list
(** The [k] profiles with the largest [p_total_ms], ties in plan order.
    Shed rows are excluded — their clock measured the degraded analysis,
    so ranking them among full evaluations would present the cut corner
    as speed. *)

val render_top_slow : results -> int -> string
(** Aligned table over {!top_slow}, plus one line counting the shed rows
    excluded from the ranking; [""] when nothing was profiled. *)

val arch_name : Cet_x86.Arch.t -> string
(** Table III row key: ["x86"] or ["x64"]. *)

type manual_endbr_report = {
  full : Metrics.counts;  (** FunSeeker under [-fcf-protection=full] *)
  manual : Metrics.counts;  (** under [-mmanual-endbr] *)
}

val manual_endbr_binary : Cet_corpus.Dataset.binary -> Metrics.counts * int
(** The ablation's per-binary unit of work: FunSeeker's counts against the
    binary's deduplicated ground truth, plus the size of that deduplicated
    entry set.  The integer always equals [tp + fn] of the counts —
    duplicate truth addresses (aliased symbols) must not inflate it. *)

val manual_endbr_ablation : ?jobs:int -> options -> manual_endbr_report
(** The §VI discussion: recompile a Coreutils-sized suite with
    [-mmanual-endbr] (end-branches only at address-taken functions) and
    measure how much FunSeeker degrades.  The paper predicts a marginal
    impact (~1.24% of functions are only reachable via tail jumps or
    unreachable). *)

val render_manual_endbr : manual_endbr_report -> string

val speed :
  ?profiles:Cet_corpus.Profile.t list -> ?jobs:int -> options -> Tables.Table3.t
(** The §V-D whole-tool timings and the DESIGN.md §5 ablations, over the
    same plan as {!run}.  Every binary runs seven rows, each timed around
    [tool (Substrate.of_bytes stripped)], so each pays its own ELF parse
    and disassembly as the paper's whole-tool runs do.  Rows are Table3
    tools: ["funseeker-1"], ["funseeker-2"], ["funseeker-3"] and
    ["funseeker"] (configs ①–④), ["funseeker-anchored"] (④ over the
    anchored sweep), ["fetch-1"] (one pass) and ["fetch"] (default
    passes).  Reads only [seed], [scale] and [timing]; under
    [timing = false] no time is recorded, and the result is the same at
    every [jobs]. *)

val render_speed : Tables.Table3.t -> string
(** One line per row: precision, recall and mean ms per binary; then the
    §V-D ratio (FETCH-like over FunSeeker ④), left out when nothing was
    timed. *)

type related_work_report = {
  byteweight_in : Metrics.counts;  (** trained and tested on GCC/x86-64 *)
  byteweight_ood : Metrics.counts;  (** same model tested on Clang/x86 *)
  nucleus_c : Metrics.counts;  (** Nucleus-like on C binaries *)
  nucleus_cpp : Metrics.counts;  (** Nucleus-like on C++ binaries *)
  funseeker_ref : Metrics.counts;  (** FunSeeker on the same test set *)
}

val related_work : ?jobs:int -> options -> related_work_report
(** The §VII-B comparators: train a ByteWeight-like prefix-tree on part of
    a suite and evaluate it in- and out-of-distribution, and run the
    Nucleus-like CFG analysis on C and C++ binaries.  FunSeeker runs on the
    same test set for reference (and needs no training). *)

val render_related_work : related_work_report -> string

type inline_data_report = {
  clean_linear : Metrics.counts;
  clean_anchored : Metrics.counts;
  dirty_linear : Metrics.counts;  (** jump tables placed inline in [.text] *)
  dirty_anchored : Metrics.counts;
  dirty_resyncs : int;
      (** linear-sweep resynchronisation events on the dirty set — one per
          desynchronised byte run, not one per undecodable byte *)
}

val inline_data : ?jobs:int -> options -> inline_data_report
(** The §VI inline-data experiment: compile a binutils-like suite twice —
    normally, and with jump tables embedded in [.text] (hand-written-
    assembly style) — and compare plain linear sweep against the
    end-branch-anchored sweep. *)

val render_inline_data : inline_data_report -> string

type arm_report = {
  arm_bti : Metrics.counts;  (** BTI seeker on -mbranch-protection=bti builds *)
  arm_legacy : Metrics.counts;  (** same seeker on unprotected builds *)
  arm_binaries : int;
}

val arm_bti : ?jobs:int -> options -> arm_report
(** The §VI ARM extension over a corpus slice: every suite's programs
    lowered by the AArch64 backend, identified by the ported seeker, with a
    legacy (no-BTI) control group. *)

val render_arm : arm_report -> string
