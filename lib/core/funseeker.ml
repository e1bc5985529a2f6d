module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module Span = Cet_telemetry.Span

type config = {
  filter_endbr : bool;
  include_jump_targets : bool;
  select_tail_calls : bool;
}

let config1 = { filter_endbr = false; include_jump_targets = false; select_tail_calls = false }
let config2 = { config1 with filter_endbr = true }
let config3 = { config2 with include_jump_targets = true }
let config4 = { config3 with select_tail_calls = true }
let default_config = config4

type result = {
  functions : int list;
  endbr_total : int;
  filtered_indirect_return : int;
  filtered_landing_pads : int;
  call_target_count : int;
  jump_target_count : int;
  tail_calls_selected : int;
  resync_errors : int;
}

let empty_result =
  {
    functions = [];
    endbr_total = 0;
    filtered_indirect_return = 0;
    filtered_landing_pads = 0;
    call_target_count = 0;
    jump_target_count = 0;
    tail_calls_selected = 0;
    resync_errors = 0;
  }

(* Index of the greatest start <= [addr] (the function owning [addr]), or
   -1 when [addr] precedes every start.  [hint] is an earlier answer (or
   -1): sites arrive in address order, so a walk of a step or two from it
   usually finds the owner; past four steps, or when [addr] lies before
   the hint, a binary search takes over. *)
let owner_index (starts : int array) hint addr =
  let n = Array.length starts in
  let lo = ref (if hint >= 0 && starts.(hint) <= addr then hint + 1 else 0) in
  let steps = ref 0 in
  while !steps < 4 && !lo < n && starts.(!lo) <= addr do
    incr lo;
    incr steps
  done;
  if !lo < n && starts.(!lo) <= addr then begin
    (* every start below [lo] is <= addr: search [lo, n) for the first
       one above it *)
    let hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if starts.(mid) <= addr then lo := mid + 1 else hi := mid
    done
  end;
  !lo - 1

(* The reference table: for every jump target, the functions that
   reference it by a call or a jump — as one int, since SELECTTAILCALL
   only asks whether a function other than the jump's own is among them.
   Open addressing over a power-of-two capacity at least twice the number
   of jumps; [vals] holds the owner state of each slot. *)
let vacant = -3
let unreferenced = -2 (* no referencing site lies inside a function *)
let several = -1
(* otherwise: the start index of the single referencing function *)

type refs = { keys : int array; vals : int array; mask : int }

let refs_create njmps =
  let cap = ref 16 in
  while !cap < 2 * njmps do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap 0; vals = Array.make !cap vacant; mask = !cap - 1 }

(* Slot of [target]: where it is, or the vacant slot where it would go. *)
let refs_slot r target =
  let i = ref (((target * 0x2545F4914F6CDD1D) lsr 29) land r.mask) in
  while r.vals.(!i) <> vacant && r.keys.(!i) <> target do
    i := (!i + 1) land r.mask
  done;
  !i

let select_tail_calls_ix ?on_vote ~starts ~jmp_sites ~jmp_tgts ~call_sites ~call_tgts
    ~text_end () =
  let nstarts = Array.length starts in
  let njmps = Array.length jmp_sites in
  (* Only jump targets are ever asked "who references you": enter them
     all, then a call to any other address is skipped after one probe. *)
  let refs = refs_create njmps in
  let jmp_slot =
    Array.map
      (fun target ->
        let i = refs_slot refs target in
        if refs.vals.(i) = vacant then begin
          refs.keys.(i) <- target;
          refs.vals.(i) <- unreferenced
        end;
        i)
      jmp_tgts
  in
  let add_ref i o =
    if o >= 0 then begin
      let cur = refs.vals.(i) in
      if cur = unreferenced then refs.vals.(i) <- o else if cur <> o then refs.vals.(i) <- several
    end
  in
  let hint = ref (-1) in
  Array.iteri
    (fun k site ->
      let i = refs_slot refs call_tgts.(k) in
      if refs.vals.(i) <> vacant then begin
        hint := owner_index starts !hint site;
        add_ref i !hint
      end)
    call_sites;
  let jmp_owner = Array.make njmps (-1) in
  hint := -1;
  for k = 0 to njmps - 1 do
    hint := owner_index starts !hint jmp_sites.(k);
    jmp_owner.(k) <- !hint;
    add_ref jmp_slot.(k) !hint
  done;
  let selected = Array.make njmps 0 in
  let nsel = ref 0 in
  for k = 0 to njmps - 1 do
    let o = jmp_owner.(k) in
    if o >= 0 then begin
      let site = jmp_sites.(k) and target = jmp_tgts.(k) in
      let lo = starts.(o) in
      let hi = if o + 1 < nstarts then starts.(o + 1) else text_end in
      let beyond = target < lo || target >= hi in
      (* The jump's own function is among the target's referencing ones,
         so another one exists exactly when there are several. *)
      let outside_refs = refs.vals.(jmp_slot.(k)) = several in
      let selected_here = beyond && outside_refs in
      (match on_vote with
      | None -> ()
      | Some f -> f ~site ~target ~lo ~hi ~beyond ~outside_refs ~selected:selected_here);
      if selected_here then begin
        selected.(!nsel) <- target;
        incr nsel
      end
    end
  done;
  Linear.sort_dedup_ints (Array.sub selected 0 !nsel)

let select_tail_calls ?on_vote ~candidates ~jmp_refs ~call_refs ~text_end () =
  let sites refs = Array.of_list (List.map fst refs) in
  let tgts refs = Array.of_list (List.map snd refs) in
  Array.to_list
    (select_tail_calls_ix ?on_vote
       ~starts:(Linear.sort_dedup_ints (Array.of_list candidates))
       ~jmp_sites:(sites jmp_refs) ~jmp_tgts:(tgts jmp_refs) ~call_sites:(sites call_refs)
       ~call_tgts:(tgts call_refs) ~text_end ())

(* Position of [v] in the sorted array [a], or -1. *)
let find_sorted (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = v then !lo else -1

(* FILTERENDBR proper: drop end-branches after indirect-return call sites
   and at exception landing pads.  Split out of the analysis core so the
   phase can carry its own telemetry span (which also covers the PLT and
   LSDA parsing the filter needs, matching the paper's phase accounting).
   The landing-pad set comes from the substrate's memoised decode when one
   is available; the robust path ([diag] present) always parses fresh via
   [Parse.landing_pads_diag] so its degradation semantics are unchanged. *)
let filter_endbr ?diag ?st ?prov reader ~(ix : Substrate.indexes) ~filtered_ir ~filtered_lp =
  (* Drop end-branches that are return targets of indirect-return
     imports (setjmp & co.), identified through the PLT.  On the robust
     path ([diag] present) a corrupt relocation table degrades to "no
     indirect-return filtering" instead of aborting the analysis. *)
  let plt_map =
    match diag with
    | None -> Parse.plt reader
    | Some diag -> (
      try Parse.plt reader
      with e ->
        Cet_util.Diag.Collector.addf diag ~domain:"core" ~code:"plt"
          "PLT map unavailable, indirect-return filtering disabled: %s"
          (Printexc.to_string e);
        { Parse.plt_lo = 0; plt_hi = 0; entries = [] })
  in
  (* The indirect-return PLT slots, resolved once per binary; then the
     return addresses of the calls into them, ascending (call sites are in
     address order), with [ir_calls] naming the call responsible for each
     so a provenance record can cite it. *)
  let ir_slots =
    List.filter_map
      (fun (slot, name) ->
        if Parse.in_plt plt_map slot && List.mem name Parse.indirect_return_imports then
          Some slot
        else None)
      plt_map.Parse.entries
    |> Array.of_list |> Linear.sort_dedup_ints
  in
  let ir_calls =
    if Array.length ir_slots = 0 then [||]
    else begin
      let ks = ref [] in
      for k = Array.length ix.Substrate.call_tgts - 1 downto 0 do
        if find_sorted ir_slots ix.Substrate.call_tgts.(k) >= 0 then ks := k :: !ks
      done;
      Array.of_list !ks
    end
  in
  let ir_rets = Array.map (fun k -> ix.Substrate.call_rets.(k)) ir_calls in
  (* Drop end-branches heading exception landing pads. *)
  let pads =
    match (st, diag) with
    | Some st, None -> Substrate.landing_pads st
    | _, Some diag -> Array.of_list (Parse.landing_pads_diag ~diag reader)
    | None, None -> Array.of_list (Parse.landing_pads reader)
  in
  let endbrs = ix.Substrate.endbrs in
  let keep = Array.make (Array.length endbrs) 0 in
  let n = ref 0 in
  Array.iter
    (fun e ->
      let r = find_sorted ir_rets e in
      if r >= 0 then begin
        incr filtered_ir;
        Option.iter
          (fun p ->
            let call_site = ix.Substrate.call_sites.(ir_calls.(r)) in
            Provenance.record_filter p e (Provenance.Filtered_indirect_return { call_site }))
          prov
      end
      else if Linear.mem_sorted pads e then begin
        incr filtered_lp;
        Option.iter (fun p -> Provenance.record_filter p e Provenance.Filtered_landing_pad) prov
      end
      else begin
        Option.iter (fun p -> Provenance.record_filter p e Provenance.Kept) prov;
        keep.(!n) <- e;
        incr n
      end)
    endbrs;
  Array.sub keep 0 !n

(* SELECTTAILCALL over the substrate's index arrays, returning the
   selected count too.  Calls leaving .text need no filtering here: only
   references to jump targets, which are in .text, are ever consulted. *)
let select_phase ?prov (fx : Substrate.facts) ~(ix : Substrate.indexes) ~base_candidates =
  let on_vote =
    match prov with
    | None -> None
    | Some p ->
      Some
        (fun ~site ~target ~lo ~hi ~beyond ~outside_refs ~selected ->
          Provenance.record_vote p ~target
            {
              Provenance.v_site = site;
              v_lo = lo;
              v_hi = hi;
              v_beyond = beyond;
              v_outside_ref = outside_refs;
              v_selected = selected;
            })
  in
  let selected =
    select_tail_calls_ix ?on_vote ~starts:base_candidates ~jmp_sites:ix.Substrate.jmp_sites
      ~jmp_tgts:ix.Substrate.jmp_tgts ~call_sites:ix.Substrate.call_sites
      ~call_tgts:ix.Substrate.call_tgts ~text_end:(Substrate.text_end fx) ()
  in
  (match prov with
  | None -> ()
  | Some p -> Array.iter (Provenance.mark_selected p) selected);
  (Linear.merge_sorted_dedup base_candidates selected, Array.length selected)

(* The analysis core over the sweep-level facts plus the (possibly
   memoised) index arrays.  Note what is *not* here: the instruction
   stream.  Everything is set algebra on sorted int arrays, so the
   substrate can feed this from its stream-free scan; the only per-call
   allocations are the merged candidate arrays themselves. *)
let analyze_ix_impl ?diag ?st ?prov config reader (fx : Substrate.facts) (ix : Substrate.indexes) =
  let filtered_ir = ref 0 and filtered_lp = ref 0 in
  let endbrs' =
    if not config.filter_endbr then ix.Substrate.endbrs
    else if Span.enabled () then
      Span.with_ ~name:"funseeker.filter_endbr" (fun () ->
          filter_endbr ?diag ?st ?prov reader ~ix ~filtered_ir ~filtered_lp)
    else filter_endbr ?diag ?st ?prov reader ~ix ~filtered_ir ~filtered_lp
  in
  (* [endbrs'] is in address order, hence sorted: a linear merge with the
     sorted call-target set replaces the old sort_uniq over a concat. *)
  let base_candidates = Linear.merge_sorted_dedup endbrs' ix.Substrate.call_targets in
  let tail_selected = ref 0 in
  let functions =
    if not config.include_jump_targets then base_candidates
    else if not config.select_tail_calls then
      Linear.merge_sorted_dedup base_candidates ix.Substrate.jmp_targets
    else begin
      let fns, n =
        if Span.enabled () then
          Span.with_ ~name:"funseeker.select_tailcall" (fun () ->
              select_phase ?prov fx ~ix ~base_candidates)
        else select_phase ?prov fx ~ix ~base_candidates
      in
      tail_selected := n;
      fns
    end
  in
  let r =
    {
      functions = Array.to_list functions;
      endbr_total = Array.length ix.Substrate.endbrs;
      filtered_indirect_return = !filtered_ir;
      filtered_landing_pads = !filtered_lp;
      call_target_count = Array.length ix.Substrate.call_targets;
      jump_target_count = Array.length ix.Substrate.jmp_targets;
      tail_calls_selected = !tail_selected;
      resync_errors = fx.Substrate.f_resync_errors;
    }
  in
  if Span.enabled () then begin
    let module Reg = Cet_telemetry.Registry in
    Reg.count "funseeker.analyses";
    Reg.count ~n:r.endbr_total "funseeker.endbr_total";
    Reg.count ~n:r.filtered_indirect_return "funseeker.filtered_indirect_return";
    Reg.count ~n:r.filtered_landing_pads "funseeker.filtered_landing_pads";
    Reg.count ~n:r.tail_calls_selected "funseeker.tail_calls_selected";
    Reg.count ~n:r.resync_errors "funseeker.resync_errors";
    Reg.count ~n:(List.length r.functions) "funseeker.functions"
  end;
  r

(* Candidate harvesting (the E, C, J sets) for a sweep that arrives
   without a substrate: one single-pass index build, under the same span
   the old list-based collector carried. *)
let collect_indexes sweep =
  if Span.enabled () then
    Span.with_ ~name:"funseeker.collect" (fun () -> Substrate.indexes_of_sweep sweep)
  else Substrate.indexes_of_sweep sweep

let analyze_sweep_impl ?diag config reader (sweep : Linear.t) =
  analyze_ix_impl ?diag config reader (Substrate.facts_of_sweep sweep)
    (collect_indexes sweep)

let analyze_sweep ?(config = default_config) reader (sweep : Linear.t) =
  if Span.enabled () then
    Span.with_ ~name:"funseeker.analyze" (fun () ->
        analyze_sweep_impl config reader sweep)
  else analyze_sweep_impl config reader sweep

(* The substrate path never touches the instruction stream: [facts] and
   [indexes] both come from the substrate's stream-free scan (or from an
   already-memoised sweep, identically), so FunSeeker's DISASSEMBLE phase
   allocates no per-instruction records at all. *)
let analyze_st_impl config anchored st =
  let ix =
    if Span.enabled () then
      Span.with_ ~name:"funseeker.collect" (fun () -> Substrate.indexes ~anchored st)
    else Substrate.indexes ~anchored st
  in
  let fx = Substrate.facts ~anchored st in
  analyze_ix_impl ~st config (Substrate.reader st) fx ix

let analyze_st ?(config = default_config) ?(anchored = false) st =
  if Span.enabled () then
    Span.with_ ~name:"funseeker.analyze" (fun () -> analyze_st_impl config anchored st)
  else analyze_st_impl config anchored st

let analyze ?(config = default_config) ?(anchored = false) reader =
  analyze_st ~config ~anchored (Substrate.create reader)

(* ---- Provenance-recording path ---------------------------------------- *)

(* The candidate sources (E, C, J membership plus the referencing sites)
   are facts about the binary, so they are recorded up front whatever the
   configuration; the filter decisions and tail-call votes are recorded by
   the phases the configuration actually runs. *)
let record_sources prov (fx : Substrate.facts) (ix : Substrate.indexes) =
  Array.iter (Provenance.record_endbr prov) ix.Substrate.endbrs;
  Array.iteri
    (fun k target ->
      if Substrate.in_text fx target then
        Provenance.record_call prov ~site:ix.Substrate.call_sites.(k) ~target)
    ix.Substrate.call_tgts;
  Array.iter (Provenance.mark_call_target prov) ix.Substrate.call_targets;
  Array.iteri
    (fun k target -> Provenance.record_jmp prov ~site:ix.Substrate.jmp_sites.(k) ~target)
    ix.Substrate.jmp_tgts;
  Array.iter (Provenance.mark_jmp_target prov) ix.Substrate.jmp_targets

let analyze_prov ?(config = default_config) ?(anchored = false) st =
  let prov = Provenance.create () in
  let ix = Substrate.indexes ~anchored st in
  let fx = Substrate.facts ~anchored st in
  record_sources prov fx ix;
  let r = analyze_ix_impl ~st ~prov config (Substrate.reader st) fx ix in
  List.iter (Provenance.mark_kept prov) r.functions;
  (r, prov)

let analyze_bytes ?(config = default_config) ?(anchored = false) bytes =
  analyze ~config ~anchored (Cet_elf.Reader.read bytes)

(* ---- Robust analysis path -------------------------------------------- *)

module Diag = Cet_util.Diag

let analyze_diag ?(config = default_config) ?(anchored = false) reader =
  let diag = Diag.Collector.create () in
  (* A private substrate for the scan products only: the substrate is not
     passed down, so the robust landing-pad path (degradation semantics
     via [Parse.landing_pads_diag]) is unchanged. *)
  let st = Substrate.create reader in
  let result =
    match Substrate.facts ~anchored st with
    | fx -> (
      try analyze_ix_impl ~diag config reader fx (Substrate.indexes ~anchored st)
      with Cet_util.Deadline.Expired { what; seconds } ->
        Diag.Collector.addf diag ~severity:Diag.Error ~domain:"core" ~code:"timeout"
          "analysis exceeded the %gs budget (in %s)" seconds what;
        empty_result)
    | exception Invalid_argument _ ->
      (* No .text: nothing to disassemble, but the binary parsed — report
         an empty identification instead of failing the whole pipeline. *)
      Diag.Collector.add diag
        (Diag.error ~domain:"core" ~code:"no-text" "no .text section: empty analysis");
      empty_result
    | exception Cet_util.Deadline.Expired { what; seconds } ->
      Diag.Collector.addf diag ~severity:Diag.Error ~domain:"core" ~code:"timeout"
        "analysis exceeded the %gs budget (in %s)" seconds what;
      empty_result
  in
  if Span.enabled () then
    Cet_telemetry.Registry.count ~n:(Diag.Collector.count diag) "funseeker.diagnostics";
  (result, Diag.Collector.list diag)

let analyze_bytes_diag ?(config = default_config) ?(anchored = false) ?max_seconds bytes =
  let run () =
    match Cet_elf.Reader.read_diag bytes with
    | Error d -> Error d
    | Ok (reader, parse_diags) ->
      let result, analysis_diags = analyze_diag ~config ~anchored reader in
      Ok (result, parse_diags @ analysis_diags)
  in
  match max_seconds with
  | None -> run ()
  | Some seconds -> (
    try Cet_util.Deadline.with_ ~seconds run
    with Cet_util.Deadline.Expired { what; seconds } ->
      (* Expiry inside the ELF parse itself (analyze_diag catches its own). *)
      Ok
        ( empty_result,
          [
            Diag.makef ~severity:Diag.Error ~domain:"core" ~code:"timeout"
              "analysis exceeded the %gs budget (in %s)" seconds what;
          ] ))
