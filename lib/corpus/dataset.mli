(** Dataset builder: the 48-point configuration grid
    ({!Cet_compiler.Options.all_grid}, DESIGN.md §6) over the three suites
    (§III-A), streamed binary by binary so evaluation never holds the whole
    corpus in memory.

    Each program's IR is generated once (the "source code") and compiled
    under every configuration, as the paper builds its 8,136 binaries.
    Binaries are handed to the callback as stripped ELF bytes plus the
    ground-truth entry list the unstripped counterpart would yield; the
    unstripped twin itself is built only on request ({!iter_twins}). *)

type binary = {
  suite : string;
  program : string;
  config : Cet_compiler.Options.t;
  lang : Cet_compiler.Ir.lang;
  stripped : string;  (** stripped ELF bytes — what the tools see *)
  truth : (string * int) list;  (** function entries, paper's corrections applied *)
}

type plan
(** An enumerable work plan over the dataset: one item per binary,
    program-major and configuration-minor.  The plan holds no ELF bytes —
    items are built on demand by {!nth}, so independent workers (e.g.
    {!Cet_util.Work_queue}'s) can claim item [k] without being driven by
    {!iter}'s closure.  A program's IR is generated and prepared
    ({!Cet_compiler.Codegen.prepare}) by the first of its binaries to be
    built, shared by the others (from any domain, behind a per-program
    mutex) and dropped once every configuration has been linked from
    it. *)

val plan :
  ?profiles:Profile.t list ->
  ?configs:Cet_compiler.Options.t list ->
  seed:int ->
  scale:float ->
  unit ->
  plan
(** Same defaults and semantics as {!iter}: all three suites, the full
    48-point grid, [scale] shrinking program counts. *)

val length : plan -> int
(** Number of work items, one per binary: programs × configurations.
    Item [k] is configuration [k mod #configs] of program [k / #configs];
    programs are ordered profile-major then by program index — the exact
    traversal order of {!iter}. *)

val nth : plan -> int -> binary list
(** Materialize work item [k]: the one-element list of binary [k],
    linked from its program's shared IR (generated here if no other
    binary of the program holds it).  Pure in [(plan, k)], so any domain
    may build any item, concurrently with the others; concatenating
    [nth plan 0 .. length plan - 1] reproduces the {!iter} stream
    exactly.  Raises [Invalid_argument] when [k] is out of range. *)

val iter :
  ?profiles:Profile.t list ->
  ?configs:Cet_compiler.Options.t list ->
  seed:int ->
  scale:float ->
  (binary -> unit) ->
  unit
(** Stream the dataset.  Defaults: all three suites, the full 48-point
    grid.  [scale] shrinks program and function counts for quick runs
    (1.0 = paper-sized suites).  Equivalent to folding [f] over
    [nth plan 0 .. nth plan (length plan - 1)] in order. *)

val iter_twins :
  ?profiles:Profile.t list ->
  ?configs:Cet_compiler.Options.t list ->
  seed:int ->
  scale:float ->
  (binary -> unstripped:string -> unit) ->
  unit
(** {!iter}, each binary handed over with its unstripped twin: the same
    link written with its symbol table, the ground-truth source.  The
    on-disk corpus needs it; evaluation never builds it. *)

val count : ?profiles:Profile.t list -> ?configs:Cet_compiler.Options.t list ->
  scale:float -> unit -> int
(** Number of binaries [iter] will produce. *)
