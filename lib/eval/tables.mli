(** Accumulators and text renderers for the paper's tables and figure.

    Each accumulator is streamed per-binary by {!Harness} and rendered as an
    aligned text table whose rows mirror the paper's layout, so measured and
    published numbers can be compared side by side. *)

module Table1 : sig
  (** Distribution of end-branch locations per compiler × suite. *)

  type t

  val create : unit -> t
  val record : t -> compiler:string -> suite:string -> Core.Study.endbr_location -> unit
  val merge : t -> t -> unit
  (** [merge dst src] folds [src]'s cells into [dst]; merging per-worker
      partial tables in plan order reproduces the sequential run exactly. *)

  val render : t -> string
  val share : t -> compiler:string -> suite:string -> Core.Study.endbr_location -> float
  (** Percentage share of one location class (for tests/benches). *)
end

module Fig3 : sig
  (** Overlap of the EndBrAtHead / DirJmpTarget / DirCallTarget properties
      over all ground-truth functions. *)

  type t

  val create : unit -> t
  val record : t -> Core.Study.props -> unit
  val merge : t -> t -> unit
  val total : t -> int
  val share : t -> string -> float
  (** Percentage of functions in a {!Core.Study.props_key} region. *)

  val render : t -> string
end

module Table2 : sig
  (** FunSeeker ablation: precision/recall per compiler × suite × config. *)

  type t

  val create : unit -> t
  val record :
    t -> compiler:string -> suite:string -> config:int -> Metrics.counts -> unit
  val merge : t -> t -> unit
  val totals : t -> config:int -> Metrics.counts
  val render : t -> string
end

module Triage : sig
  (** Error forensics: root-cause bucket counts for every false positive
      and false negative, keyed by the binary's compilation configuration
      ({!Cet_compiler.Options.to_string} form — compiler, arch, PIE, opt
      level).  Bucket names come from
      {!Core.Provenance.bucket_name}. *)

  type t

  val create : unit -> t
  val record : ?n:int -> t -> config:string -> bucket:string -> unit
  val merge : t -> t -> unit
  (** Plan-order merge of per-worker partials; the rendered table and the
      JSONL dump are byte-identical across [--jobs]. *)

  val total : t -> int
  (** All triaged errors (every FP and FN across the corpus). *)

  val render : t -> string
  (** Aligned rows sorted by (config, bucket) with per-config shares,
      followed by cross-config bucket totals. *)

  val write_jsonl : out_channel -> t -> unit
  (** One [{"config","bucket","count"}] object per row, render order,
      then the cross-config totals with config ["total"]. *)
end

module Table3 : sig
  (** Tool comparison: precision/recall per arch × suite per tool, plus
      mean per-binary analysis time for FunSeeker and FETCH. *)

  type t

  val tools : string list
  (** ["funseeker"; "ida"; "ghidra"; "fetch"]. *)

  val create : unit -> t
  val record :
    t -> arch:string -> suite:string -> tool:string -> Metrics.counts -> unit
  val record_time : t -> arch:string -> suite:string -> tool:string -> float -> unit
  val merge : t -> t -> unit
  (** Sums counts, accumulated time, and binary tallies per cell. *)

  val counts : t -> arch:string -> suite:string -> tool:string -> Metrics.counts
  val totals : t -> tool:string -> Metrics.counts
  val mean_time : t -> tool:string -> float
  (** Mean per-binary seconds across the whole dataset. *)

  val render : t -> string
end
