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

val analyze_st :
  ?config:config ->
  ?anchored:bool ->
  ?prov:Provenance.t ->
  Cet_disasm.Substrate.t ->
  result
(** Run FunSeeker over a per-binary substrate — the one entry point.  The
    sweep, the derived index arrays and the landing-pad set are computed
    at most once per binary however many configurations (or other tools)
    consume them; for a single binary, pass
    [Cet_disasm.Substrate.of_bytes bytes].

    With [anchored] (default false) the DISASSEMBLE stage reads the
    indexes and facts of the end-branch-anchored walk
    ({!Cet_disasm.Substrate.indexes} [~anchored:true]), the §VI
    mitigation for binaries with inline data in [.text].

    With [prov], the analysis also fills the given record with decision
    provenance: every candidate source, every FILTERENDBR decision with
    its reason, every SELECTTAILCALL vote with its inputs, and the final
    verdict.  The result is unchanged (test-asserted), and without [prov]
    the analysis pays nothing for the feature.

    Over a {!Cet_disasm.Substrate.of_bytes_diag} substrate a corrupt PLT
    or exception table degrades FILTERENDBR instead of raising, and the
    degradation is reported in {!Cet_disasm.Substrate.diags}.  Raises
    [Invalid_argument] when the image has no [.text], and
    {!Cet_util.Deadline.Expired} when an armed deadline runs out. *)

val empty_result : result
(** All-zero result — what the fuzzer's robust pipeline reports when
    nothing is analyzable (no [.text], expired deadline). *)

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
    distinct.  The AArch64 BTI seeker runs the same selection over its
    own arrays. *)
