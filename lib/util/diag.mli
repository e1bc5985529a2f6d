(** Typed diagnostics for graceful degradation.

    The robust analysis path ({!Cet_elf.Reader.read_diag}, the
    substrates built by [Cet_disasm.Substrate.of_bytes_diag], the
    evaluation harness) reports recoverable trouble — clamped section
    bounds, skipped LSDAs, missing sections, exceeded deadlines — as
    values instead of exceptions, so one malformed input can degrade its
    own analysis without taking down a batch.  A diagnostic carries a
    {!severity}, the emitting subsystem ([domain]), a stable
    machine-readable [code], and a human message. *)

type severity =
  | Info  (** observation; the result is unaffected *)
  | Warning  (** the result was degraded (clamped, partial, filtered less) *)
  | Error  (** the result is empty or unusable for this input *)

type t = { severity : severity; domain : string; code : string; message : string }

val make : ?severity:severity -> domain:string -> code:string -> string -> t
(** [severity] defaults to [Warning]. *)

val makef :
  ?severity:severity ->
  domain:string ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

val info : domain:string -> code:string -> string -> t
val warning : domain:string -> code:string -> string -> t
val error : domain:string -> code:string -> string -> t

val severity_label : severity -> string
val to_string : t -> string
(** ["severity [domain/code]: message"]. *)

val render : t list -> string
(** One {!to_string} line per diagnostic (with trailing newline), in order. *)

val max_severity : t list -> severity option
val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

(** Accumulates diagnostics in emission order.  Degenerate inputs can emit
    one diagnostic per corrupt structure, so the retained list is capped
    (the count is exact); see {!Collector.add}. *)
module Collector : sig
  type diag = t
  type t

  val create : unit -> t

  val add : t -> diag -> unit
  (** Record a diagnostic.  Beyond an internal cap the diagnostic is
      counted but not retained, and one [diag/truncated] marker is kept. *)

  val addf :
    t ->
    ?severity:severity ->
    domain:string ->
    code:string ->
    ('a, unit, string, unit) format4 ->
    'a

  val list : t -> diag list
  (** Retained diagnostics in emission order. *)

  val count : t -> int
  (** Total emitted, including unretained ones. *)

  val is_empty : t -> bool
end
