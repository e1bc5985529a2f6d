(** Typed reader for [evaluate --trace-out] JSON-lines traces
    ([type:"span"/"phase"/"counter"/"gauge"] rows), and their conversion
    to the Chrome trace-event format.

    Only what the analyzer consumes is retained: spans with their owning
    sheet, and merged counters and gauges. *)

type span = {
  t_sheet : int;  (** registry sheet id = worker track *)
  t_name : string;
  t_start_ns : int;
  t_dur_ns : int;
}

type t = {
  spans : span list;  (** in file order *)
  counters : (string * int) list;  (** merged registry counters *)
  gauges : (string * float) list;
}

val parse : string -> (t, string) result
(** Every non-blank line must be a JSON object; rows of other types
    ([meta], [phase]) are skipped. *)

val load : string -> (t, string) result
(** {!parse} of a file's contents; I/O errors become [Error]. *)

val counter : t -> string -> int
(** A counter's value, 0 when absent. *)

val gauge : t -> string -> float
(** A gauge's value, 0.0 when absent. *)

val to_chrome : t -> string
(** The spans as a Chrome trace-event JSON array: one complete
    ([ph:"X"]) event per span in file order, [ts] and [dur] in
    microseconds, [tid] = the span's sheet, so chrome://tracing or
    Perfetto lays workers out as parallel tracks. *)
