(** Deterministic ELF mutation fuzzer for the robust analysis path.

    A small pool of well-formed corpus binaries (both architectures, C and
    C++, inline jump tables) is corrupted by seeded mutations — ELF header
    bytes, section-header-table bytes, [.gcc_except_table]/[.eh_frame]
    truncation and corruption, blind byte flips, file truncation — and each
    mutant is fed to {!analyze} under a deadline.  The contract under
    test: the robust pipeline NEVER raises and never hangs, whatever the
    bytes; corruption surfaces only as diagnostics or a clean [Error].
    Each mutant also gets one differential verdict, {!check_walk_order}.

    Everything is deterministic in [seed]: the pool, every mutation, and
    therefore the whole {!summary} (timing aside, the deadline is generous
    relative to these micro binaries). *)

type crash = {
  c_class : string;  (** mutation class that produced the mutant *)
  c_index : int;  (** mutant number, for replay with the same seed *)
  c_error : string;
  c_backtrace : string;
}

type summary = {
  total : int;
  per_class : (string * int) list;  (** mutants drawn per mutation class *)
  clean : int;  (** analyzed with no diagnostics *)
  degraded : int;  (** analyzed with diagnostics *)
  rejected : int;  (** unreadable ELF, reported as a clean [Error] *)
  timeouts : int;  (** degraded analyses that hit the deadline *)
  crashes : crash list;  (** escaped exceptions — must be empty *)
}

val analyze :
  ?max_seconds:float ->
  anchored:bool ->
  string ->
  (Core.Funseeker.result * Cet_util.Diag.t list, Cet_util.Diag.t) result
(** The robust pipeline under test: {!Cet_disasm.Substrate.of_bytes_diag}
    then {!Core.Funseeker.analyze_st}, optionally under a [max_seconds]
    wall-clock budget ({!Cet_util.Deadline.with_}).  [Error] only when the
    ELF itself is unreadable.  Corrupt exception tables and PLTs degrade
    inside the substrate; a missing [.text] or an expired deadline yields
    {!Core.Funseeker.empty_result} with a [core/no-text] or
    [core/timeout] error diagnostic.  The list holds the parse
    diagnostics, then every degradation in emission order. *)

val check_walk_order : anchored:bool -> string -> unit
(** The differential verdict {!run} adds to every mutant whose ELF parses
    ({!Cet_elf.Reader.read_diag}), in the mutant's own walk (plain or
    anchored): a substrate swept first and one scanned first must both
    raise (the same exception constructor), or agree on the facts, the
    index arrays and the stream.  Raises [Failure] when they do not,
    which {!run} counts as a crash. *)

val classes : string array
(** The mutation-class names, in draw order. *)

val mutate : Cet_util.Prng.t -> cls:string -> string -> string
(** One seeded mutation of the given class applied to a copy of the bytes
    (exposed for regression tests).  Classes whose target structure cannot
    be located fall back to blind byte flips. *)

val run : ?max_seconds:float -> ?jobs:int -> seed:int -> count:int -> unit -> summary
(** Fuzz [count] mutants.  [max_seconds] (default 2.0) bounds each mutant's
    analysis via {!Cet_util.Deadline}.  Mutants are drawn sequentially
    from one PRNG stream, then analysed on a {!Cet_util.Work_queue} pool
    of [jobs] workers (default: the recommended domain count) and merged
    in index order — the summary is byte-identical whatever [jobs].
    Backtraces are
    recorded during the run (a crash record carries one) and the caller's
    {!Printexc.backtrace_status} is restored on return and on raise. *)

val render : summary -> string
(** Deterministic human-readable summary, crashes (with backtraces)
    included. *)

val crash_schema : int
(** Version stamped into every crash row's [schema] field. *)

val write_crashes : out_channel -> summary -> unit
(** One JSON object per crash per line ([schema]/[class]/[index]/[error]/
    [backtrace]) — the [--crash-out] report format, mirroring the error
    and backtrace of a quarantined manifest row. *)

val read_crashes : string -> (crash list, string) result
(** Parse a whole crash JSONL document back into crash records — the
    round-trip inverse of {!write_crashes}.  Rejects rows whose [schema]
    differs from {!crash_schema}. *)
