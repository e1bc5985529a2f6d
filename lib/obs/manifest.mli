(** Typed reader for [evaluate --manifest-out] run manifests.

    A manifest is schema-tagged JSONL: one [kind:"run"] header (the run's
    content digest, options, corpus scale and jobs, pointers to
    the run's other artifacts) followed by one [kind:"binary"] row per
    evaluated binary.  The binary rows carry each binary's stable content
    digest — the join key for every cross-run comparison — plus its
    analysis verdict (status and decode volume).

    Reading is strict: a schema this reader does not understand is an
    error, and the header digest is verified against a recomputation over
    the binary rows, so a truncated or hand-edited manifest cannot pass
    as a run identity. *)

type binary = {
  b_suite : string;
  b_program : string;
  b_config : string;
  b_arch : string;
  b_digest : string;  (** hex MD5 of the stripped ELF bytes *)
  b_status : string;  (** ["ok"] or ["quarantined"] *)
  b_text_bytes : int;
  b_insns : int;
  b_resyncs : int;
  b_truth : int;
}

type artifacts = {
  a_profile : string option;
  a_quarantine : string option;
  a_trace : string option;
  a_metrics : string option;
}

type t = {
  r_digest : string;  (** the run digest from the header, verified *)
  r_experiment : string;
  r_seed : int;
  r_scale : float;
  r_jobs : int;
  r_timing : bool;
  r_binaries : int;  (** successfully evaluated binaries *)
  r_functions : int;
  r_quarantined : int;
  r_artifacts : artifacts;
  rows : binary list;  (** in plan order, as written *)
}

val schema : int
(** The manifest schema this reader understands (2). *)

val key : binary -> string
(** ["suite/program[config]"] — the identity half of a row. *)

val recompute_digest : binary list -> string
(** The run digest recipe, reader side: hex MD5 over one ["key=digest"]
    line per row in row order.  Must agree with
    [Cet_eval.Harness.run_digest] (pinned by test). *)

val parse : string -> (t, string) result
(** Parse whole-file manifest contents.  Errors on a missing or mistyped
    field, an unsupported schema, a header whose digest does not match
    {!recompute_digest} of the rows, or malformed JSON. *)

val load : string -> (t, string) result
(** {!parse} of a file's contents; I/O errors become [Error]. *)
