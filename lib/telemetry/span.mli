(** Phase spans over the monotonic clock.

    [with_ ~name f] times [f] and records the duration into the calling
    domain's private sheet under [name].  Spans nest: time spent in an
    inner span is also attributed to the enclosing span's [child_ns], so
    a report can show exclusive (self) time per phase, and the self-times
    of a nested instrumentation sum to the outermost spans' total.

    When the registry is disabled, [with_] is [f ()] after one atomic
    load — but the closure passed to it may itself allocate at the call
    site, so instrumentation on hot paths should use the guard idiom:

    {[
      let sweep arch ?(base = 0) code =
        if Span.enabled () then
          Span.with_ ~name:"disasm.sweep" (fun () -> sweep_impl arch base code)
        else sweep_impl arch base code
    ]}

    which makes the disabled path exactly two branch checks (the caller's
    and none inside) and zero allocation. *)

val enabled : unit -> bool
(** Alias of {!Registry.enabled} for guard sites. *)

val now_ns : unit -> int
(** The raw monotonic clock, nanoseconds. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Run and time a span.  Exceptions still close the span. *)
