(** The scheduler→telemetry bridge.

    {!Cet_util.Work_queue} sits below this library, so it reports through
    an observer callback instead of calling the registry directly.  This
    module is the bridge both drivers (the evaluation harness, the
    mutation fuzzer) install, and from its counter the OpenMetrics export
    picks the steals up for free. *)

val scheduler_observer : Cet_util.Work_queue.event -> unit
(** Counts each steal under [scheduler.steals].  Safe to install
    unconditionally: with the registry disabled each event costs one
    atomic load. *)
