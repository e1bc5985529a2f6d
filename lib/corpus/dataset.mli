(** Dataset builder: the 24-configuration grid over the three suites
    (§III-A), streamed binary by binary so evaluation never holds the whole
    corpus in memory.

    Each program's IR is generated once (the "source code") and compiled
    under every configuration, exactly as the paper builds its 8,136
    binaries.  Binaries are handed to the callback as stripped ELF bytes
    plus the ground-truth entry list the unstripped counterpart would
    yield. *)

type binary = {
  suite : string;
  program : string;
  config : Cet_compiler.Options.t;
  lang : Cet_compiler.Ir.lang;
  stripped : string;  (** stripped ELF bytes — what the tools see *)
  unstripped : string;  (** symbol-bearing ELF bytes — ground-truth source *)
  truth : (string * int) list;  (** function entries, paper's corrections applied *)
}

type plan
(** An enumerable work plan over the dataset: one item per generated
    program, each materializing that program's whole configuration row.
    The plan itself holds no ELF bytes — items are built on demand by
    {!nth}, so independent workers (e.g. {!Cet_util.Work_queue}'s) can
    claim item [k] without being driven by {!iter}'s closure. *)

val plan :
  ?profiles:Profile.t list ->
  ?configs:Cet_compiler.Options.t list ->
  seed:int ->
  scale:float ->
  unit ->
  plan
(** Same defaults and semantics as {!iter}: all three suites, the full
    24-point grid, [scale] shrinking program counts. *)

val length : plan -> int
(** Number of work items (programs).  Items are ordered profile-major then
    by program index — the exact traversal order of {!iter}. *)

val binaries : plan -> int
(** Total binaries the plan yields: [length plan * #configs]. *)

val nth : plan -> int -> binary list
(** Materialize work item [k]: generate program [k]'s IR once and compile
    it under every configuration, in grid order.  Pure in [(plan, k)], so
    any domain may evaluate any item; concatenating [nth plan 0 .. length
    plan - 1] reproduces the {!iter} stream exactly. *)

val iter :
  ?profiles:Profile.t list ->
  ?configs:Cet_compiler.Options.t list ->
  seed:int ->
  scale:float ->
  (binary -> unit) ->
  unit
(** Stream the dataset.  Defaults: all three suites, the full 24-point
    grid.  [scale] shrinks program and function counts for quick runs
    (1.0 = paper-sized suites).  Equivalent to folding [f] over
    [nth plan 0 .. nth plan (length plan - 1)] in order. *)

val count : ?profiles:Profile.t list -> ?configs:Cet_compiler.Options.t list ->
  scale:float -> unit -> int
(** Number of binaries [iter] will produce. *)
