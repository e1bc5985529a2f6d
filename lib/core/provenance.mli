(** Decision provenance: the per-address evidence behind every FunSeeker
    verdict, and the error forensics built on top of it.

    The paper's Section V insight is {e why} identification succeeds or
    fails — an end-branch filtered after an indirect-return call, a
    landing pad mistaken for an entry, a tail-call vote over a jump
    target — yet an aggregate P/R/F1 hides all of it.  A provenance
    record keeps, for every candidate address, the sources that proposed
    it (end-branch, direct-call target, direct-jump target), every filter
    decision with its reason, every tail-call vote with its inputs, and
    the final verdict, so any prediction (or miss) can be explained after
    the fact.

    Recording is opt-in: [Funseeker.analyze_st] touches this module only
    when given a record through its [?prov] argument, so the plain path
    stays allocation-free (asserted by a [Gc.minor_words] budget
    test). *)

(** FILTERENDBR's decision on one end-branch candidate.  [None] in the
    evidence record means the filter never ran (configurations 1). *)
type filter_decision =
  | Kept  (** survived both filter clauses *)
  | Filtered_indirect_return of { call_site : int }
      (** dropped: the end-branch is the return target of the direct call
          at [call_site] into an indirect-return import (setjmp & co.) *)
  | Filtered_landing_pad
      (** dropped: the end-branch heads an exception landing pad *)

(** One SELECTTAILCALL vote: a jump site referencing the candidate, with
    the extent of the function owning the site and the two clause
    outcomes.  A target is selected when some vote has both clauses
    true. *)
type vote = {
  v_site : int;  (** address of the jump instruction *)
  v_lo : int;  (** extent of the function containing the site *)
  v_hi : int;
  v_beyond : bool;  (** target lands beyond [v_lo, v_hi) *)
  v_outside_ref : bool;  (** target also referenced from another function *)
  v_selected : bool;  (** [v_beyond && v_outside_ref] *)
}

(** Everything recorded about one candidate address.  Source fields are
    facts about the binary (recorded whatever the configuration); filter
    and vote fields are filled only by the phases the configuration
    runs. *)
type evidence = {
  e_addr : int;
  mutable e_endbr : bool;  (** heads an end-branch instruction (in E) *)
  mutable e_filter : filter_decision option;
  mutable e_call_sites : int list;
      (** direct-call sites targeting the address, address order *)
  mutable e_call_target : bool;  (** in-range direct-call target (in C) *)
  mutable e_jmp_sites : int list;
      (** unconditional direct-jump sites targeting the address *)
  mutable e_jmp_target : bool;  (** in-range direct-jump target (in J) *)
  mutable e_votes : vote list;  (** SELECTTAILCALL votes, site order *)
  mutable e_selected : bool;  (** selected as a tail-call target (in J') *)
  mutable e_kept : bool;  (** final verdict: in the identified set *)
}

type t

val create : unit -> t
val find : t -> int -> evidence option
val list : t -> evidence list
(** All evidence records in address order. *)

val kept : t -> int list
(** Addresses with a kept verdict, sorted — equals the analysis result's
    function list (asserted by the consistency tests). *)

(** {1 Recording} (used by [Funseeker.analyze_st ~prov]) *)

val record_endbr : t -> int -> unit
val record_filter : t -> int -> filter_decision -> unit
val record_call : t -> site:int -> target:int -> unit
val mark_call_target : t -> int -> unit
val record_jmp : t -> site:int -> target:int -> unit
val mark_jmp_target : t -> int -> unit
val record_vote : t -> target:int -> vote -> unit
val mark_selected : t -> int -> unit
val mark_kept : t -> int -> unit

(** {1 Error forensics} *)

(** Root-cause bucket of one false positive or false negative.  The
    taxonomy mirrors the paper's Section V failure discussion. *)
type bucket =
  | Fp_landing_pad  (** predicted address is an exception landing pad *)
  | Fp_unfiltered_endbr
      (** end-branch-headed non-entry that FILTERENDBR kept (or the
          configuration never filtered) *)
  | Fp_tail_call  (** tail-call-selected jump target that is no entry *)
  | Fp_jump_target
      (** unselected jump target kept by a no-selection configuration *)
  | Fp_call_target  (** direct-call target that is no entry *)
  | Fp_other
  | Fn_filtered_true_entry
      (** true entry whose end-branch FILTERENDBR dropped *)
  | Fn_missed_tailcall
      (** true entry that is a jump target but lost the tail-call vote
          (or the configuration ignored jump targets) *)
  | Fn_no_anchor
      (** true entry with no end-branch, call or jump evidence at all —
          invisible to every heuristic *)
  | Fn_other

val bucket_name : bucket -> string
(** Stable kebab-case identifier, e.g. ["fn-no-anchor"] — the triage
    table / JSONL key. *)

val errors : t -> truth:int list -> pads:int array -> (int * bucket) list
(** Join the kept set against the (sorted, distinct) ground truth and
    bucket every false positive and false negative by root cause, in
    address order.  [pads] is the binary's sorted landing-pad set
    ({!Cet_disasm.Substrate.landing_pads}). *)

val explain : t -> int -> string
(** The full evidence chain for one address, human-readable: candidate
    sources with their referencing sites, the FILTERENDBR decision and
    reason, every tail-call vote with its inputs, and the final verdict.
    Addresses that never became candidates say so explicitly. *)
