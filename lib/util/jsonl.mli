(** A minimal JSON reader for the repo's own line-oriented reports.

    The run manifest, the crash report and the traces are JSON written
    by hand-rolled printers ({!escape} + [Printf]); this
    module gives the reader side: enough of RFC 8259 to round-trip
    everything those printers can emit (objects, arrays, strings with the
    quote/backslash/slash/control and [u]-hex escapes, numbers, booleans,
    null).  It is a test and tooling surface, not a general-purpose JSON
    library — no streaming, no trailing
    garbage tolerance, integer-precision numbers as [float].  [\uXXXX]
    surrogate pairs combine into one astral scalar (4-byte UTF-8); bare
    [NaN]/[Infinity] tokens are rejected as RFC 8259 requires. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes: quote,
    backslash, [\n], [\r] and [\t] get their short escapes, every other
    byte below 0x20 a [\u00XX] one, and all other bytes are copied.  For
    every string [s] of bytes below 0x80, [parse ("\"" ^ escape s ^ "\"")]
    is [Ok (Str s)]. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; the error string carries a byte
    offset.  Leading/trailing whitespace is allowed, trailing non-space
    input is an error. *)

val parse_lines : string -> (t list, string) result
(** Parse a JSONL document: one JSON value per non-empty line.  Stops at
    the first bad line, reporting its 1-based line number. *)

(** {1 Accessors} — [None] on shape mismatch, never an exception. *)

val member : string -> t -> t option
(** First field of that name in an [Obj]. *)

val str : t -> string option

val num : t -> float option

val int : t -> int option
(** [num] truncated; [None] if not integral. *)

val bool : t -> bool option

val list : t -> t list option
