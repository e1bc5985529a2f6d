(* Tests for decision provenance and the triage pipeline built on it:
   the provenance entry point must agree with the production analysis
   exactly, every verdict must be backed by evidence, the triage table
   must hold the determinism contract across ~jobs, and the plain
   (provenance-disabled) path must not pay for the feature. *)

module O = Cet_compiler.Options
module Reader = Cet_elf.Reader
module Substrate = Cet_disasm.Substrate
module FS = Core.Funseeker
module Prov = Core.Provenance
module Harness = Cet_eval.Harness
module Tables = Cet_eval.Tables

let check = Alcotest.check
let int_list = Alcotest.(list int)

let build ~profile ~index ~opts =
  let ir = Cet_corpus.Generator.program ~seed:2022 ~profile ~index in
  let res = Cet_compiler.Link.link opts ir in
  ( Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image,
    List.sort_uniq Int.compare (List.map snd res.Cet_compiler.Link.truth) )

(* Both compilers, both arches, and a C++ binary so FILTERENDBR has
   landing pads to drop (the interesting provenance records). *)
let corpus =
  lazy
    (let coreutils = Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.coreutils in
     let spec_cpp =
       {
         (Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.spec) with
         Cet_corpus.Profile.lang_cpp_fraction = 1.0;
       }
     in
     [
       ("gcc-x64", build ~profile:coreutils ~index:0 ~opts:O.default);
       ( "clang-x86",
         build ~profile:coreutils ~index:1
           ~opts:{ O.default with compiler = O.Clang; arch = Cet_x86.Arch.X86; pie = false }
       );
       ("gcc-x64-cpp", build ~profile:spec_cpp ~index:0 ~opts:O.default);
     ])

let configs =
  [ (1, FS.config1); (2, FS.config2); (3, FS.config3); (4, FS.config4) ]

(* One analysis with provenance recording: the result and the record. *)
let with_prov ?config ?anchored st =
  let prov = Prov.create () in
  let r = FS.analyze_st ?config ?anchored ~prov st in
  (r, prov)

(* Recording provenance must leave the analysis observationally
   unchanged: same result record, and a kept set that IS the function
   list. *)
let test_prov_matches_analysis () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let st = Substrate.of_bytes bytes in
      List.iter
        (fun (i, config) ->
          let plain = FS.analyze_st ~config st in
          let r, prov = with_prov ~config st in
          let label = Printf.sprintf "%s config%d" name i in
          check int_list (label ^ " functions") plain.FS.functions r.FS.functions;
          check Alcotest.int (label ^ " endbr_total") plain.FS.endbr_total
            r.FS.endbr_total;
          check Alcotest.int (label ^ " filtered_ir")
            plain.FS.filtered_indirect_return r.FS.filtered_indirect_return;
          check Alcotest.int (label ^ " filtered_lp")
            plain.FS.filtered_landing_pads r.FS.filtered_landing_pads;
          check Alcotest.int (label ^ " tail_calls") plain.FS.tail_calls_selected
            r.FS.tail_calls_selected;
          check int_list (label ^ " kept = functions") r.FS.functions (Prov.kept prov))
        configs;
      let plain = FS.analyze_st ~anchored:true st in
      let r, prov = with_prov ~anchored:true st in
      check int_list (name ^ " anchored functions") plain.FS.functions r.FS.functions;
      check int_list (name ^ " anchored kept") r.FS.functions (Prov.kept prov))
    (Lazy.force corpus)

(* Every verdict must be explicable: a kept address has at least one
   recorded candidate source, and the filter counters of the result are
   exactly the filter decisions in the evidence. *)
let test_evidence_consistency () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let st = Substrate.of_bytes bytes in
      List.iter
        (fun (i, config) ->
          let r, prov = with_prov ~config st in
          let label = Printf.sprintf "%s config%d" name i in
          List.iter
            (fun addr ->
              match Prov.find prov addr with
              | None -> Alcotest.failf "%s: kept 0x%x has no evidence" label addr
              | Some e ->
                if not e.Prov.e_kept then
                  Alcotest.failf "%s: kept 0x%x lacks kept verdict" label addr;
                if not (e.Prov.e_endbr || e.Prov.e_call_target || e.Prov.e_jmp_target)
                then
                  Alcotest.failf "%s: kept 0x%x has no candidate source" label addr)
            r.FS.functions;
          let filtered_ir, filtered_lp, kept_decisions =
            List.fold_left
              (fun (ir, lp, k) e ->
                match e.Prov.e_filter with
                | Some (Prov.Filtered_indirect_return _) -> (ir + 1, lp, k)
                | Some Prov.Filtered_landing_pad -> (ir, lp + 1, k)
                | Some Prov.Kept -> (ir, lp, k + 1)
                | None -> (ir, lp, k))
              (0, 0, 0) (Prov.list prov)
          in
          check Alcotest.int (label ^ " ir decisions = counter")
            r.FS.filtered_indirect_return filtered_ir;
          check Alcotest.int (label ^ " lp decisions = counter")
            r.FS.filtered_landing_pads filtered_lp;
          if config.FS.filter_endbr then
            check Alcotest.int (label ^ " every endbr got a decision")
              r.FS.endbr_total
              (filtered_ir + filtered_lp + kept_decisions)
          else
            check Alcotest.int (label ^ " filter off records nothing") 0
              (filtered_ir + filtered_lp + kept_decisions);
          (* Selected tail-call targets carry a winning vote. *)
          if config.FS.select_tail_calls then
            List.iter
              (fun e ->
                if e.Prov.e_selected then
                  if
                    not
                      (List.exists (fun v -> v.Prov.v_selected) e.Prov.e_votes)
                  then
                    Alcotest.failf "%s: selected 0x%x has no winning vote" label
                      e.Prov.e_addr)
              (Prov.list prov))
        configs)
    (Lazy.force corpus)

(* The rendered chain must name the verdict, and the landing-pad filter
   reason must be spelled out for a dropped catch block. *)
let test_explain_renders () =
  let bytes, _ = List.assoc "gcc-x64-cpp" (Lazy.force corpus) in
  let st = Substrate.of_bytes bytes in
  let r, prov = with_prov st in
  let contains haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  (match r.FS.functions with
  | [] -> Alcotest.fail "cpp binary identified nothing"
  | addr :: _ ->
    check Alcotest.bool "kept chain says KEPT" true
      (contains (Prov.explain prov addr) "KEPT"));
  check Alcotest.bool "unknown address is not a candidate" true
    (contains (Prov.explain prov 1) "NOT A CANDIDATE");
  if r.FS.filtered_landing_pads = 0 then
    Alcotest.fail "cpp binary filtered no landing pads (corpus too small?)";
  let pad =
    List.find
      (fun e -> e.Prov.e_filter = Some Prov.Filtered_landing_pad)
      (Prov.list prov)
  in
  let chain = Prov.explain prov pad.Prov.e_addr in
  check Alcotest.bool "pad chain names the landing pad" true
    (contains chain "landing pad");
  check Alcotest.bool "pad chain is a rejection" true (contains chain "REJECTED")

(* Triage over the harness: byte-identical across ~jobs, and its total is
   exactly the full configuration's fp + fn of Table II (same truth, same
   analysis, just bucketed). *)
let micro_profile =
  {
    Cet_corpus.Profile.coreutils with
    Cet_corpus.Profile.suite = "coreutils";
    programs = 2;
    funcs_lo = 30;
    funcs_hi = 40;
  }

let micro_configs =
  [ O.default; { O.default with O.compiler = O.Clang } ]

let triage_run ~jobs =
  Harness.run ~profiles:[ micro_profile ] ~configs:micro_configs ~jobs
    {
      Harness.default_options with
      Harness.seed = 11;
      scale = 1.0;
      timing = false;
      triage = true;
    }

let test_triage_identical_across_jobs () =
  let seq = triage_run ~jobs:1 in
  let par = triage_run ~jobs:4 in
  check Alcotest.string "triage table byte-identical"
    (Tables.Triage.render seq.Harness.triage)
    (Tables.Triage.render par.Harness.triage);
  let c4 = Tables.Table2.totals seq.Harness.table2 ~config:4 in
  check Alcotest.int "triage total = config4 fp + fn"
    (c4.Cet_eval.Metrics.fp + c4.Cet_eval.Metrics.fn)
    (Tables.Triage.total seq.Harness.triage)

let test_triage_off_is_empty () =
  let r =
    Harness.run ~profiles:[ micro_profile ] ~configs:micro_configs ~jobs:1
      { Harness.default_options with Harness.seed = 11; scale = 1.0; timing = false }
  in
  check Alcotest.int "no triage rows without --triage" 0
    (Tables.Triage.total r.Harness.triage)

(* The production path must not pay for provenance: with the substrate
   warm, analyze_st allocates exactly the same number of minor words on
   every call (the [?prov] plumbing is all [None] immediates), and only a
   run that records provenance allocates more. *)
let test_disabled_provenance_allocates_nothing_extra () =
  let bytes, _ = List.assoc "gcc-x64" (Lazy.force corpus) in
  let st = Substrate.of_bytes bytes in
  ignore (FS.analyze_st st);
  ignore (with_prov st);
  let measure f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let plain () = measure (fun () -> FS.analyze_st st) in
  let a = plain () and b = plain () and c = plain () in
  check (Alcotest.float 0.0) "plain path allocation is exactly stable" a b;
  check (Alcotest.float 0.0) "plain path allocation is exactly stable (2)" b c;
  let prov = measure (fun () -> with_prov st) in
  if not (prov > a) then
    Alcotest.failf
      "provenance recording allocated %.0f words but the plain path %.0f — \
       recording cost is not confined to ?prov runs" prov a

let suite =
  [
    ( "provenance",
      [
        Alcotest.test_case "?prov leaves analyze_st unchanged" `Quick
          test_prov_matches_analysis;
        Alcotest.test_case "every verdict is backed by evidence" `Quick
          test_evidence_consistency;
        Alcotest.test_case "explain renders the chain" `Quick test_explain_renders;
        Alcotest.test_case "triage byte-identical across jobs" `Quick
          test_triage_identical_across_jobs;
        Alcotest.test_case "triage off records nothing" `Quick
          test_triage_off_is_empty;
        Alcotest.test_case "disabled provenance allocates nothing extra" `Quick
          test_disabled_provenance_allocates_nothing_extra;
      ] );
  ]
