(** FunSeeker: function identification for CET-enabled binaries (Alg. 1).

    {[
      FunSeeker(bin):
        txt, exn ← PARSE(bin)
        E, C, J  ← DISASSEMBLE(txt)
        E'       ← FILTERENDBR(E, exn)
        J'       ← SELECTTAILCALL(J)
        return E' ∪ C ∪ J'
    ]}

    The four ablation configurations of Table II are expressed through
    {!config}: ① [E ∪ C], ② [E' ∪ C], ③ [E' ∪ C ∪ J], ④ [E' ∪ C ∪ J']. *)

type config = {
  filter_endbr : bool;  (** run FILTERENDBR (§IV-C) *)
  include_jump_targets : bool;  (** add direct-jump targets (J) *)
  select_tail_calls : bool;  (** restrict J to tail calls (§IV-D) *)
}

val config1 : config
(** E ∪ C. *)

val config2 : config
(** E' ∪ C. *)

val config3 : config
(** E' ∪ C ∪ J. *)

val config4 : config
(** E' ∪ C ∪ J' — the full FunSeeker. *)

val default_config : config
(** Same as {!config4}. *)

type result = {
  functions : int list;  (** identified entry addresses, sorted *)
  endbr_total : int;  (** |E| *)
  filtered_indirect_return : int;  (** end-branches dropped as setjmp-style return targets *)
  filtered_landing_pads : int;  (** end-branches dropped as catch blocks *)
  call_target_count : int;  (** |C| *)
  jump_target_count : int;  (** |J| *)
  tail_calls_selected : int;  (** |J'| *)
  resync_errors : int;  (** linear-sweep desynchronisation events (one per run) *)
}

val analyze : ?config:config -> ?anchored:bool -> Cet_elf.Reader.t -> result
(** Run FunSeeker on a parsed binary.  With [anchored] (default false) the
    DISASSEMBLE stage uses the end-branch-anchored sweep
    ({!Cet_disasm.Linear.sweep_anchored}), the §VI mitigation for binaries
    with inline data in [.text]. *)

val analyze_st :
  ?config:config -> ?anchored:bool -> Cet_disasm.Substrate.t -> result
(** Like {!analyze} but over a shared per-binary substrate: the sweep,
    the derived index arrays, and the landing-pad set are computed at most
    once per binary however many configurations (or other tools) consume
    them.  This is the entry point the evaluation harness uses. *)

val analyze_prov :
  ?config:config ->
  ?anchored:bool ->
  Cet_disasm.Substrate.t ->
  result * Provenance.t
(** {!analyze_st} with decision provenance: beside the usual result, a
    per-address evidence record of every candidate source, every
    FILTERENDBR decision with its reason, every SELECTTAILCALL vote with
    its inputs, and the final verdict.  The identified set is unchanged
    ([fst (analyze_prov st) = analyze_st st], test-asserted), and the
    plain {!analyze_st} path pays nothing for the feature — recording
    only happens through this entry point. *)

val analyze_sweep :
  ?config:config -> Cet_elf.Reader.t -> Cet_disasm.Linear.t -> result
(** Like {!analyze} but over a pre-computed linear sweep — lets the
    ablation harness share one DISASSEMBLE across the four configs. *)

val analyze_bytes : ?config:config -> ?anchored:bool -> string -> result
(** Convenience: parse ELF bytes then {!analyze}. *)

val empty_result : result
(** All-zero result — what the robust path returns when nothing is
    analyzable (no [.text], expired deadline). *)

val analyze_diag :
  ?config:config ->
  ?anchored:bool ->
  Cet_elf.Reader.t ->
  result * Cet_util.Diag.t list
(** Non-raising {!analyze} for untrusted binaries.  Corrupt exception
    tables degrade FILTERENDBR (skipped LSDAs, salvaged [.eh_frame]
    prefix) rather than aborting; a missing [.text] or an expired
    {!Cet_util.Deadline} yields {!empty_result} with a [core/no-text] or
    [core/timeout] error diagnostic.  Every degradation is reported in the
    returned list.  Never raises. *)

val analyze_bytes_diag :
  ?config:config ->
  ?anchored:bool ->
  ?max_seconds:float ->
  string ->
  (result * Cet_util.Diag.t list, Cet_util.Diag.t) Stdlib.result
(** End-to-end robust pipeline: {!Cet_elf.Reader.read_diag} then
    {!analyze_diag}, optionally under a [max_seconds] wall-clock budget
    ({!Cet_util.Deadline.with_}).  [Error] only when the ELF itself is
    unreadable; everything downstream degrades into diagnostics.  Never
    raises. *)

val select_tail_calls :
  ?on_vote:
    (site:int ->
    target:int ->
    lo:int ->
    hi:int ->
    beyond:bool ->
    outside_refs:bool ->
    selected:bool ->
    unit) ->
  candidates:int list ->
  jmp_refs:(int * int) list ->
  call_refs:(int * int) list ->
  text_end:int ->
  unit ->
  int list
(** SELECTTAILCALL in isolation, over lists: given candidate function
    starts, jump references and call references as [(site, target)], keep
    the jump targets that (1) land beyond the extent of the function
    containing the jump, and (2) are referenced from at least one other
    function.  Sorted, distinct.  A thin wrapper over
    {!select_tail_calls_ix}. *)

val select_tail_calls_ix :
  ?on_vote:
    (site:int ->
    target:int ->
    lo:int ->
    hi:int ->
    beyond:bool ->
    outside_refs:bool ->
    selected:bool ->
    unit) ->
  starts:int array ->
  jmp_sites:int array ->
  jmp_tgts:int array ->
  call_sites:int array ->
  call_tgts:int array ->
  text_end:int ->
  unit ->
  int array
(** SELECTTAILCALL as the analysis runs it, on the substrate's arrays:
    [starts] are the candidate function starts, sorted ascending; jump and
    call references are parallel site/target arrays.  Each function
    extends from its start to the next one (the last to [text_end]); a
    site before every start belongs to no function and casts no vote.
    [on_vote] observes every vote, in jump order, with its clause outcomes
    — the provenance recorder's hook; omitted, the selection is exactly
    the production path.  Returns the selected targets, sorted and
    distinct. *)
