(** Typed reader for [evaluate --trace-out] files, both formats: the
    JSON-lines trace ([type:"span"/"phase"/"counter"/"gauge"] rows) and
    the Chrome trace-event array ([ph:"X"] complete spans).  The format
    is sniffed from the first non-blank byte ([\[] opens a Chrome array;
    anything else is JSONL).

    Only what the analyzer consumes is retained: spans with their owning
    sheet/tid, and merged counters and gauges (JSONL only — the Chrome
    format has no counter rows). *)

type span = {
  t_sheet : int;  (** registry sheet id = worker track (tid) *)
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

val load : string -> (t, string) result
(** {!parse} of a file's contents; I/O errors become [Error]. *)

val counter : t -> string -> int
(** A counter's value, 0 when absent. *)

val gauge : t -> string -> float
(** A gauge's value, 0.0 when absent. *)
