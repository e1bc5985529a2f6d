(** Per-domain analysis deadlines.

    A robustness guard for the analysis pipeline: the evaluation harness
    arms one deadline per binary ([evaluate --max-seconds]), and the
    long-running loops (the linear sweeps, the fuzzer's per-mutant run)
    poll {!check} periodically, so no input can hang a worker domain.

    Deadlines are ambient and domain-local — arming one in an evaluation
    worker never affects its siblings — and the disarmed fast path is a
    single atomic load, so {!check} may sit inside hot loops. *)

exception Expired of { what : string; seconds : float }
(** Raised by {!check}: [what] names the loop that noticed, [seconds] the
    armed budget. *)

val active : unit -> bool
(** Whether any domain currently has an armed deadline (one atomic load). *)

val with_ : seconds:float -> (unit -> 'a) -> 'a
(** [with_ ~seconds f] runs [f] with a deadline [seconds] from now armed
    on the calling domain.  Nesting is allowed; an inner deadline never
    extends the enclosing one.  The deadline is disarmed on exit, normal
    or exceptional.  Raises [Invalid_argument] unless [seconds > 0] (so
    on NaN too). *)

val expired : unit -> bool
(** Has the calling domain's deadline passed?  [false] when none armed. *)

val check : string -> unit
(** Raise {!Expired} if the calling domain's deadline has passed; no-op
    when none is armed.  The argument names the checking loop. *)
