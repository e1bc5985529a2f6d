(** The end-to-end experiment driver: walks the dataset's work plan and
    fills every table/figure accumulator, optionally across several
    domains.

    [scale] trades corpus size for wall-clock time; 1.0 builds suites with
    the paper's program counts.  All numbers are deterministic in [seed]
    except the timing columns (which [timing = false] pins to zero).

    Every entry point takes a [?jobs] parameter (default:
    [Domain.recommended_domain_count ()]).  Parallel runs are exact: each
    plan item evaluates into a private accumulator, and the main domain
    merges the partial results in plan order, so the output is
    byte-identical to [~jobs:1] whichever way the corpus was partitioned.
    In {!run} a plan item is one binary ({!Cet_corpus.Dataset.nth}). *)

type options = {
  seed : int;
  scale : float;
  progress : bool;
      (** print a live [done/total  rate  ETA] status line to stderr,
          finishing with one exact [done/total] summary line that also
          reports the quarantined binary count (nothing is printed for an
          empty plan) *)
  timing : bool;
      (** measure per-binary wall-clock for Table III; [false] zeroes the
          timing columns and makes rendered output fully deterministic *)
  max_seconds : float option;
      (** per-binary wall-clock budget ({!Cet_util.Deadline}); an expired
          binary is quarantined *)
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
          decode volume, ok/quarantined status).  Off by default; the
          disabled path adds no allocation to the per-binary loop. *)
}

val default_options : options
(** [keep_going = true], no deadline, no fault injection. *)

(** One binary's row of the run: identity, decode volume, the phase time
    split, and how its evaluation ended — the manifest's row type
    ({!Cet_obs.Manifest.row}), which writes and reads it.  A quarantined
    row has its analysis figures zeroed and carries the error and the
    backtrace.  Under [timing = false] every clock figure is zero, so the
    row is deterministic in the seed. *)
type profile = Cet_obs.Manifest.row = {
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
  p_status : string;  (** ["ok"] or ["quarantined"] *)
  p_total_ms : float;
  p_phases : (string * float) list;
      (** {!profile_phase_names}, each in milliseconds *)
  p_error : string option;  (** [Printexc.to_string] of what quarantined it *)
  p_backtrace : string option;
}

val profile_phase_names : string list
(** study, configs, funseeker, ida, ghidra, fetch, triage: the fixed
    phase vocabulary of every row, in order. *)

val content_digest : string -> string
(** Hex MD5 of a binary's stripped ELF bytes: its content identity.  The
    corpus is deterministic in the seed, so the digest is stable across
    runs and [--jobs] — it keys every cross-run join
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
  failures : profile list;
      (** the quarantined binaries' rows, in plan order, whether or not
          {!options.profile} was set *)
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
    contributes nothing (no partial table rows).  The engine is
    {!Cet_util.Work_queue}: a work-stealing Domain pool with bounded
    admission runs one plan item per binary.  A failing binary is
    quarantined under [keep_going] (each on its own: a program's other
    binaries still run), or re-raised under fail-fast; the analyses are
    deterministic, so nothing is retried.  Steals are counted in the
    metric registry through {!Cet_telemetry.Bridge.scheduler_observer},
    shared with the fuzz driver.  The merged tables and the failure list
    are byte-identical across [jobs].  Backtraces are recorded during the
    run (a quarantine row carries one) and the caller's
    {!Printexc.backtrace_status} is restored on return and on raise. *)

val render_all : results -> string

val render_failures : results -> string
(** Human-readable quarantine summary; [""] when nothing failed. *)

val top_slow : results -> int -> profile list
(** The [k] profiles with the largest [p_total_ms], ties in plan order. *)

val render_top_slow : results -> int -> string
(** Aligned table over {!top_slow}; [""] when nothing was profiled. *)

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
    same plan as {!run}.  Every binary runs six rows, each timed around
    [tool (Substrate.of_bytes stripped)], so each pays its own ELF parse
    and disassembly as the paper's whole-tool runs do.  Rows are Table3
    tools: ["funseeker-1"], ["funseeker-2"], ["funseeker-3"] and
    ["funseeker"] (configs ①–④), ["funseeker-anchored"] (④ over the
    anchored sweep) and ["fetch"] (FETCH-like).  Reads only [seed],
    [scale] and [timing]; under [timing = false] no time is recorded, and
    the result is the same at every [jobs]. *)

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
