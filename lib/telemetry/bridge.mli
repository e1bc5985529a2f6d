(** The scheduler→telemetry bridge.

    {!Cet_util.Work_queue} sits below this library, so it reports through
    an observer callback instead of calling the flight recorder directly —
    the same inversion as {!Cet_util.Deadline.set_observer}.  This module
    is the standard bridge both drivers (the evaluation harness, the
    mutation fuzzer) install: scheduler events become {!Journal} entries
    and {!Registry} counters, and from the counters the OpenMetrics
    export picks them up for free. *)

val scheduler_observer : Cet_util.Work_queue.event -> unit
(** Steals and sheds are journaled (kinds {!Journal.Steal} and
    {!Journal.Shed}) and counted under [scheduler.*]; chaos injections
    are counted only ([scheduler.chaos_*]) — they are noise by design,
    not worth ring slots.  Safe to install unconditionally: with both the
    registry and the journal disabled each event costs two atomic
    loads. *)
