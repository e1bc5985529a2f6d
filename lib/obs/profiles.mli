(** Typed reader for [evaluate --profile-out] per-binary profile JSONL —
    the timing half of a run that the manifest's verdict rows deliberately
    leave out.  Rows mirror [Cet_eval.Harness.profile] (identity, content
    digest, decode volume, status, total wall time and the fixed-order
    phase split). *)

type row = {
  suite : string;
  program : string;
  config : string;
  arch : string;
  digest : string;
  text_bytes : int;
  insns : int;
  resyncs : int;
  truth : int;
  status : string;
  total_ms : float;
  phases : (string * float) list;  (** fixed vocabulary, document order *)
}

val key : row -> string
(** ["suite/program[config]"]. *)

val parse : string -> (row list, string) result
(** Parse whole-file profile JSONL contents, rows in file order. *)

val load : string -> (row list, string) result
(** {!parse} of a file's contents; I/O errors become [Error]. *)
