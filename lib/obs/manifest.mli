(** The run file that [evaluate --manifest-out] writes, and the one
    module that knows its format.

    A manifest is schema-tagged JSONL: one [kind:"run"] header (the run's
    content digest, options, corpus scale and jobs, and a pointer to the
    run's trace), then one {!row} per evaluated binary in plan order.  A
    row is the binary's profile: identity, the stable content digest
    that every cross-run comparison joins on, decode volume, status, and
    the phase time split; a quarantined row also carries the error and
    the backtrace that quarantined it.

    Reading is strict: a schema this reader does not understand is an
    error, and the header digest is verified against {!digest} of the
    rows, so a truncated or hand-edited manifest cannot pass as a run
    identity. *)

(** One evaluated binary.  Under [--no-timing] every clock figure is zero,
    so a row is deterministic in the seed. *)
type row = {
  p_suite : string;
  p_program : string;
  p_config : string;  (** [Cet_compiler.Options.to_string] descriptor *)
  p_arch : string;  (** ["x86"] or ["x64"] *)
  p_digest : string;
      (** hex MD5 of the stripped ELF bytes — the binary's stable content
          identity, present whatever [p_status] *)
  p_text_bytes : int;  (** [.text] size *)
  p_insns : int;  (** instructions decoded by the linear sweep *)
  p_resyncs : int;  (** sweep desynchronisation events *)
  p_truth : int;  (** deduplicated ground-truth entry count *)
  p_status : string;  (** ["ok"] or ["quarantined"] *)
  p_total_ms : float;
  p_phases : (string * float) list;
      (** the harness's fixed phase vocabulary, in milliseconds, in
          document order *)
  p_error : string option;  (** the exception that quarantined the binary *)
  p_backtrace : string option;  (** and where it was raised *)
}

type t = {
  r_experiment : string;
  r_seed : int;
  r_scale : float;
  r_jobs : int;
  r_timing : bool;
  r_binaries : int;  (** successfully evaluated binaries *)
  r_functions : int;
  r_quarantined : int;
  r_trace : string option;  (** the [--trace-out] path, as given *)
  rows : row list;  (** in plan order *)
}

val schema : int
(** The manifest schema this module writes and reads (3). *)

val key : row -> string
(** ["suite/program[config]"] — the identity half of a row. *)

val digest : row list -> string
(** The run digest: hex MD5 over one ["key=digest"] line per row, in row
    order.  Status and timings are left out, so two runs over the same
    corpus share it whatever their [--jobs]. *)

val write : out_channel -> t -> unit
(** The header, with {!digest} of the rows, then one JSON line per row,
    keys in a fixed order ([suite], [program], [config], [arch],
    [digest], [text_bytes], [insns], [resyncs], [truth], [status],
    [total_ms], [phases], then [error] and [backtrace] when present).
    Times are printed to the microsecond.  Under [--no-timing] the rows
    are byte-identical across [--jobs]. *)

val parse : string -> (t, string) result
(** Parse whole-file manifest contents.  Errors on a missing or mistyped
    field, an unsupported schema, a header whose digest does not match
    {!digest} of the rows, or malformed JSON.  For rows whose times are
    whole microseconds, [parse] reads back what {!write} wrote. *)

val load : string -> (t, string) result
(** {!parse} of a file's contents; I/O errors become [Error]. *)
