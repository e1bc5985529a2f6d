(* Tests for the core FunSeeker algorithm: PARSE, FILTERENDBR,
   SELECTTAILCALL, and the four Table-II configurations. *)

module Arch = Cet_x86.Arch
module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module FS = Core.Funseeker

let check = Alcotest.check

let base_prog ?(lang = Ir.C) funcs =
  { Ir.prog_name = "t"; lang; funcs; extra_imports = [] }

let compile ?(opts = O.default) ?(strip = true) prog =
  let res = Link.link opts prog in
  (res, Substrate.of_bytes (Cet_elf.Writer.write ~strip res.image))

let truth_addrs (res : Link.result) = List.sort_uniq compare (List.map snd res.truth)

(* ------------------------------------------------------------------ *)
(* SELECTTAILCALL in isolation                                        *)
(* ------------------------------------------------------------------ *)

(* SELECTTAILCALL over lists: candidate starts (any order, duplicates
   allowed) and [(site, target)] references, fed to the array core the
   way the analysis feeds it — starts sorted and distinct. *)
let select_tail_calls ?on_vote ~candidates ~jmp_refs ~call_refs ~text_end () =
  let sites refs = Array.of_list (List.map fst refs) in
  let tgts refs = Array.of_list (List.map snd refs) in
  Array.to_list
    (FS.select_tail_calls_ix ?on_vote
       ~starts:(Linear.sort_dedup_ints (Array.of_list candidates))
       ~jmp_sites:(sites jmp_refs) ~jmp_tgts:(tgts jmp_refs) ~call_sites:(sites call_refs)
       ~call_tgts:(tgts call_refs) ~text_end ())

(* Layout: f at 100..200, g at 200..300, h at 300..400 (text_end 400). *)
let candidates = [ 100; 200; 300 ]

let test_stc_both_conditions () =
  (* jmp from f (site 150) to h (300); h is also called from g (site 250). *)
  let selected =
    select_tail_calls ~candidates ~jmp_refs:[ (150, 300) ]
      ~call_refs:[ (250, 300) ] ~text_end:400 ()
  in
  check Alcotest.(list int) "selected" [ 300 ] selected

let test_stc_needs_external_ref () =
  (* Only f references the target: condition (2) fails. *)
  let selected =
    select_tail_calls ~candidates ~jmp_refs:[ (150, 300) ] ~call_refs:[] ~text_end:400 ()
  in
  check Alcotest.(list int) "nothing" [] selected

let test_stc_intra_function_jump () =
  (* Jump within f's own extent: condition (1) fails even with other refs. *)
  let selected =
    select_tail_calls ~candidates ~jmp_refs:[ (150, 180) ]
      ~call_refs:[ (250, 180) ] ~text_end:400 ()
  in
  check Alcotest.(list int) "nothing" [] selected

let test_stc_two_jumping_functions () =
  (* f and g both tail-jump to h: each sees the other as the extra
     referencing function. *)
  let selected =
    select_tail_calls ~candidates ~jmp_refs:[ (150, 300); (250, 300) ] ~call_refs:[]
      ~text_end:400 ()
  in
  check Alcotest.(list int) "selected" [ 300 ] selected

let test_stc_backward_target () =
  (* g jumps back to f (already a candidate, but selection still applies to
     the address), with h calling f too. *)
  let selected =
    select_tail_calls ~candidates ~jmp_refs:[ (250, 100) ] ~call_refs:[ (350, 100) ]
      ~text_end:400 ()
  in
  check Alcotest.(list int) "selected" [ 100 ] selected

let test_stc_same_function_multiple_sites () =
  (* Two jump sites inside the same function do not satisfy condition 2. *)
  let selected =
    select_tail_calls ~candidates ~jmp_refs:[ (150, 300); (160, 300) ] ~call_refs:[]
      ~text_end:400 ()
  in
  check Alcotest.(list int) "nothing" [] selected

(* The array core against the retired list implementation: equal
   selections and the identical [on_vote] call sequence. *)

let recorder () =
  let votes = ref [] in
  let on_vote ~site ~target ~lo ~hi ~beyond ~outside_refs ~selected =
    votes := (site, target, lo, hi, beyond, outside_refs, selected) :: !votes
  in
  (votes, on_vote)

let stc_matches_oracle ~candidates ~jmp_refs ~call_refs ~text_end =
  let oracle_votes, on_oracle = recorder () and votes, on_vote = recorder () in
  let want =
    Oracle_tailcall.select_tail_calls ~on_vote:on_oracle ~candidates ~jmp_refs ~call_refs
      ~text_end ()
  in
  let got = select_tail_calls ~on_vote ~candidates ~jmp_refs ~call_refs ~text_end () in
  want = got && !oracle_votes = !votes

(* Small address ranges, so owners, extents and shared targets collide
   often; candidates arrive unsorted and with duplicates. *)
let test_stc_vs_oracle_random =
  let addr = QCheck.Gen.int_range 0 120 in
  let refs = QCheck.Gen.(list_size (int_range 0 25) (pair addr addr)) in
  QCheck.Test.make ~name:"select_tail_calls = list oracle (random)" ~count:1000
    (QCheck.make
       ~print:(fun (c, (j, (k, e))) ->
         let pairs l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l) in
         Printf.sprintf "cands [%s] jmps [%s] calls [%s] end %d"
           (String.concat ";" (List.map string_of_int c)) (pairs j) (pairs k) e)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 12) addr)
           (pair refs (pair refs (int_range 100 140)))))
    (fun (candidates, (jmp_refs, (call_refs, text_end))) ->
      stc_matches_oracle ~candidates ~jmp_refs ~call_refs ~text_end)

(* On real binaries, fed exactly as the analysis feeds it: the E' U C
   candidates, the substrate's jump arrays, and every direct call (the
   oracle gets the in-.text calls only, as the list-based phase built
   them). *)
let test_stc_vs_oracle_corpus () =
  List.iter
    (fun (name, (bytes, _)) ->
      List.iter
        (fun anchored ->
          let st = Substrate.of_bytes bytes in
          let ix = Substrate.indexes ~anchored st and fx = Substrate.facts ~anchored st in
          let starts =
            Array.of_list (FS.analyze_st ~config:FS.config2 ~anchored st).FS.functions
          in
          let jmp_refs =
            List.init (Array.length ix.Substrate.jmp_sites) (fun k ->
                (ix.Substrate.jmp_sites.(k), ix.Substrate.jmp_tgts.(k)))
          in
          let call_refs =
            List.filter
              (fun (_, t) -> Substrate.in_text fx t)
              (List.init (Array.length ix.Substrate.call_sites) (fun k ->
                   (ix.Substrate.call_sites.(k), ix.Substrate.call_tgts.(k))))
          in
          let text_end = Substrate.text_end fx in
          let oracle_votes, on_oracle = recorder () and votes, on_vote = recorder () in
          let want =
            Oracle_tailcall.select_tail_calls ~on_vote:on_oracle
              ~candidates:(Array.to_list starts) ~jmp_refs ~call_refs ~text_end ()
          in
          let got =
            FS.select_tail_calls_ix ~on_vote ~starts ~jmp_sites:ix.Substrate.jmp_sites
              ~jmp_tgts:ix.Substrate.jmp_tgts ~call_sites:ix.Substrate.call_sites
              ~call_tgts:ix.Substrate.call_tgts ~text_end ()
          in
          let tag = Printf.sprintf "%s anchored=%b" name anchored in
          check Alcotest.(list int) (tag ^ " selection") want (Array.to_list got);
          check Alcotest.int (tag ^ " vote count") (List.length !oracle_votes)
            (List.length !votes);
          check Alcotest.bool (tag ^ " vote sequence") true (!oracle_votes = !votes))
        [ false; true ])
    (Lazy.force Test_substrate.corpus)

(* ------------------------------------------------------------------ *)
(* End-to-end on synthetic binaries                                   *)
(* ------------------------------------------------------------------ *)

let simple_prog =
  base_prog
    [
      Ir.func "main" [ Ir.Compute 3; Ir.Call (Ir.Local "a"); Ir.Call (Ir.Local "b") ];
      Ir.func "a" [ Ir.Compute 2 ];
      Ir.func ~linkage:Ir.Static "b" [ Ir.Compute 2 ];
      Ir.func ~linkage:Ir.Static ~address_taken:true "c" [ Ir.Compute 1 ];
    ]

let test_perfect_on_simple_program () =
  List.iter
    (fun opts ->
      let res, st = compile ~opts simple_prog in
      let r = FS.analyze_st st in
      check Alcotest.(list int) (O.to_string opts) (truth_addrs res) r.FS.functions)
    [
      O.default;
      { O.default with arch = Arch.X86; pie = false; opt = O.O0 };
      { O.default with compiler = O.Clang; arch = Arch.X86; opt = O.Os };
    ]

let test_filter_endbr_setjmp () =
  let p =
    base_prog
      [ Ir.func "main" [ Ir.Indirect_return_call "vfork"; Ir.Compute 1 ] ]
  in
  let res, st = compile p in
  let r1 = FS.analyze_st ~config:FS.config1 st in
  let r2 = FS.analyze_st ~config:FS.config2 st in
  (* Config 1 misreports the post-call end-branch as a function. *)
  check Alcotest.int "config1 has extra" (List.length (truth_addrs res) + 1)
    (List.length r1.FS.functions);
  check Alcotest.int "filtered one site" 1 r2.FS.filtered_indirect_return;
  check Alcotest.(list int) "config2 exact" (truth_addrs res) r2.FS.functions

let cxx_prog =
  base_prog ~lang:Ir.Cpp
    [
      Ir.func "main"
        [
          Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]);
          Ir.Try_catch ([ Ir.Compute 2 ], [ [ Ir.Compute 1 ]; [ Ir.Compute 1 ] ]);
        ];
    ]

let test_filter_endbr_landing_pads () =
  let res, st = compile cxx_prog in
  let r1 = FS.analyze_st ~config:FS.config1 st in
  let r2 = FS.analyze_st ~config:FS.config2 st in
  check Alcotest.bool "config1 counts pads as functions" true
    (List.length r1.FS.functions > List.length (truth_addrs res));
  check Alcotest.int "two pads filtered" 2 r2.FS.filtered_landing_pads;
  check Alcotest.(list int) "config2 exact" (truth_addrs res) r2.FS.functions

let tail_prog =
  base_prog
    [
      Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
      Ir.func "other" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
      (* tgt is static and never called directly: invisible to E' ∪ C. *)
      Ir.func ~linkage:Ir.Static "tgt" [ Ir.Compute 2 ];
      (* exported helper that keeps [other] alive *)
      Ir.func "z" [ Ir.Call (Ir.Local "other") ];
    ]

let test_tail_call_recovery () =
  let opts = { O.default with opt = O.O2 } in
  let res, st = compile ~opts tail_prog in
  let tgt = List.assoc "tgt" res.Link.truth in
  let r2 = FS.analyze_st ~config:FS.config2 st in
  check Alcotest.bool "config2 misses tail target" false (List.mem tgt r2.FS.functions);
  let r4 = FS.analyze_st ~config:FS.config4 st in
  check Alcotest.bool "config4 finds tail target" true (List.mem tgt r4.FS.functions);
  check Alcotest.(list int) "config4 exact" (truth_addrs res) r4.FS.functions

let test_single_ref_tail_is_fn () =
  (* A tail target referenced by exactly one function stays missed —
     the 6.7% FN class of §V-C. *)
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
        Ir.func ~linkage:Ir.Static "tgt" [ Ir.Compute 2 ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, st = compile ~opts p in
  let tgt = List.assoc "tgt" res.Link.truth in
  let r4 = FS.analyze_st ~config:FS.config4 st in
  check Alcotest.bool "single-ref tail missed" false (List.mem tgt r4.FS.functions)

let test_dead_function_is_fn () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 2 ];
        Ir.func ~linkage:Ir.Static ~dead:true "ghost" [ Ir.Compute 2 ];
      ]
  in
  let res, st = compile p in
  let ghost = List.assoc "ghost" res.Link.truth in
  let r = FS.analyze_st st in
  check Alcotest.bool "dead missed" false (List.mem ghost r.FS.functions);
  (* but dead exported functions carry an end-branch and are found *)
  let p2 =
    base_prog
      [ Ir.func "main" [ Ir.Compute 2 ]; Ir.func ~dead:true "ghost2" [ Ir.Compute 2 ] ]
  in
  let res2, st2 = compile p2 in
  let ghost2 = List.assoc "ghost2" res2.Link.truth in
  check Alcotest.bool "dead exported found" true
    (List.mem ghost2 (FS.analyze_st st2).FS.functions)

let test_part_fp () =
  (* Direct-called .part fragments are FunSeeker's residual false
     positives (§V-C). *)
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Call (Ir.Local "g") ];
        Ir.func ~fate:(Ir.Split_part { shared_jump = false; part_body = [ Ir.Compute 3 ] }) "g"
          [ Ir.Compute 1 ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, st = compile ~opts p in
  let part_addr =
    let _, s, _ = List.find (fun (n, _, _) -> n = "g.part.0") res.Link.fragment_extents in
    s
  in
  let r = FS.analyze_st st in
  check Alcotest.bool "part reported" true (List.mem part_addr r.FS.functions);
  check Alcotest.bool "part not truth" false (List.mem part_addr (truth_addrs res))

let test_config_ordering () =
  (* Recall is monotone config2 <= config4 <= config3; precision suffers
     in config3. *)
  let res, st = compile ~opts:{ O.default with opt = O.O2 } tail_prog in
  let truth = truth_addrs res in
  let recall c =
    let r = FS.analyze_st ~config:c st in
    let m = Cet_eval.Metrics.compare_sets ~truth ~found:r.FS.functions in
    Cet_eval.Metrics.recall m
  in
  check Alcotest.bool "rec c4 >= c2" true (recall FS.config4 >= recall FS.config2);
  check Alcotest.bool "rec c3 >= c4" true (recall FS.config3 >= recall FS.config4)

let test_stripped_equals_unstripped () =
  let res, stripped = compile ~strip:true cxx_prog in
  let _, unstripped = compile ~strip:false cxx_prog in
  ignore res;
  check Alcotest.(list int) "same result"
    (FS.analyze_st stripped).FS.functions (FS.analyze_st unstripped).FS.functions

let test_of_bytes () =
  let res = Link.link O.default simple_prog in
  let bytes = Cet_elf.Writer.write ~strip:true res.image in
  check Alcotest.(list int) "of_bytes" (truth_addrs res)
    (FS.analyze_st (Substrate.of_bytes bytes)).FS.functions

let test_counters_consistency () =
  let _, st = compile simple_prog in
  let r = FS.analyze_st st in
  check Alcotest.bool "endbr counted" true (r.FS.endbr_total > 0);
  check Alcotest.int "no resync" 0 r.FS.resync_errors;
  check Alcotest.bool "calls counted" true (r.FS.call_target_count > 0)

(* The one indirect-return call set (FILTERENDBR, Table I, the IBT audit)
   against a model over the sweep: the return addresses of the direct
   calls whose target is the PLT entry of an indirect-return import, in
   address order. *)
let test_indirect_return_calls () =
  let model st =
    let plt = Core.Parse.plt_st st in
    List.filter_map
      (fun (_site, ret, tgt) ->
        match Core.Parse.plt_name plt tgt with
        | Some name when List.mem name Core.Parse.indirect_return_imports -> Some ret
        | _ -> None)
      (Oracle_sweep.call_sites (Oracle_sweep.sweep_text_reference (Substrate.reader st)))
  in
  let returns name st =
    let ix = Substrate.indexes st in
    let ks = Core.Parse.indirect_return_calls (Core.Parse.plt_st st) ix in
    Array.iteri
      (fun i k -> if i > 0 && ks.(i - 1) >= k then Alcotest.failf "%s: indices not ascending" name)
      ks;
    List.map (fun k -> ix.Substrate.call_rets.(k)) (Array.to_list ks)
  in
  let p =
    base_prog
      [
        Ir.func "main"
          [
            Ir.Indirect_return_call "setjmp";
            Ir.Call (Ir.Import "printf");
            Ir.Indirect_return_call "vfork";
            Ir.Call (Ir.Local "a");
          ];
        Ir.func "a" [ Ir.Indirect_return_call "setjmp"; Ir.Compute 1 ];
      ]
  in
  let _, st = compile p in
  let want = model st in
  check Alcotest.int "three indirect-return calls" 3 (List.length want);
  check Alcotest.(list int) "synthetic" want (returns "synthetic" st);
  List.iter
    (fun (name, (bytes, _)) ->
      let st = Substrate.of_bytes bytes in
      let want = model st in
      check Alcotest.(list int) name want (returns name st))
    (Lazy.force Test_substrate.corpus)

(* ------------------------------------------------------------------ *)
(* Study classifiers                                                  *)
(* ------------------------------------------------------------------ *)

let test_study_classification () =
  let p =
    base_prog ~lang:Ir.Cpp
      [
        Ir.func "main"
          [
            Ir.Indirect_return_call "setjmp";
            Ir.Try_catch ([ Ir.Compute 1 ], [ [ Ir.Compute 1 ] ]);
            Ir.Call (Ir.Local "a");
          ];
        Ir.func "a" [ Ir.Compute 1 ];
      ]
  in
  let res, st = compile p in
  let truth = truth_addrs res in
  let classes = Core.Study.classify_endbrs_st st ~truth in
  let count k = List.length (List.filter (fun (_, c) -> c = k) classes) in
  check Alcotest.int "entries" (List.length truth) (count Core.Study.At_function_entry);
  check Alcotest.int "setjmp site" 1 (count Core.Study.After_indirect_return_call);
  check Alcotest.int "landing pad" 1 (count Core.Study.At_landing_pad);
  check Alcotest.int "nothing else" 0 (count Core.Study.Elsewhere)

let test_study_props () =
  let res, st = compile ~opts:{ O.default with opt = O.O2 } tail_prog in
  let truth = truth_addrs res in
  let props = Core.Study.function_props_st st ~truth in
  let for_name n = List.assoc (List.assoc n res.Link.truth) props in
  let main_p = for_name "main" in
  check Alcotest.bool "main endbr" true main_p.Core.Study.endbr_at_head;
  let tgt_p = for_name "tgt" in
  check Alcotest.bool "tgt no endbr" false tgt_p.Core.Study.endbr_at_head;
  check Alcotest.bool "tgt jmp target" true tgt_p.Core.Study.dir_jmp_target;
  check Alcotest.string "props key" "jmp" (Core.Study.props_key tgt_p)

(* ------------------------------------------------------------------ *)
(* IBT audit                                                           *)
(* ------------------------------------------------------------------ *)

let audit_prog =
  base_prog ~lang:Ir.Cpp
    [
      Ir.func "main"
        [
          Ir.Call_via_pointer "cb";
          Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]);
        ];
      Ir.func ~linkage:Ir.Static ~address_taken:true "cb" [ Ir.Compute 1 ];
      (* exported API surface, never referenced here: marked only under the
         compiler's conservative full protection *)
      Ir.func "api" [ Ir.Compute 2 ];
    ]

let test_audit_full_protection_clean () =
  let _, st = compile audit_prog in
  let r = Core.Audit.audit_st st in
  check Alcotest.(list reject) "no violations" []
    (List.map (fun _ -> Alcotest.fail "violation") r.Core.Audit.violations);
  check Alcotest.bool "candidates checked" true (r.Core.Audit.checked > 0);
  (* Conservative marking: more end-branches than strictly required. *)
  check Alcotest.bool "superfluous over-marking" true (r.Core.Audit.superfluous > 0)

let test_audit_manual_endbr_clean () =
  (* -mmanual-endbr marks exactly the indirect targets: still audit-clean,
     with less over-marking — the SSVI correctness argument. *)
  let opts = { O.default with cf_protection = O.Cf_manual } in
  let _, full_st = compile audit_prog in
  let _, manual_st = compile ~opts audit_prog in
  let full = Core.Audit.audit_st full_st in
  let manual = Core.Audit.audit_st manual_st in
  check Alcotest.int "no violations" 0 (List.length manual.Core.Audit.violations);
  check Alcotest.bool "less over-marking" true
    (manual.Core.Audit.superfluous < full.Core.Audit.superfluous)

let test_audit_legacy_violations () =
  let opts = { O.default with cf_protection = O.Cf_none } in
  let _, st = compile ~opts audit_prog in
  let r = Core.Audit.audit_st st in
  check Alcotest.bool "violations found" true (List.length r.Core.Audit.violations > 0);
  let reasons = List.map (fun (v : Core.Audit.violation) -> v.v_reason) r.violations in
  check Alcotest.bool "address-taken flagged" true (List.mem Core.Audit.Address_taken reasons);
  check Alcotest.bool "landing pad flagged" true (List.mem Core.Audit.Landing_pad reasons);
  check Alcotest.bool "plt flagged" true (List.mem Core.Audit.Plt_entry reasons)

let suite =
  [
    ( "funseeker.selecttailcall",
      [
        Alcotest.test_case "both conditions" `Quick test_stc_both_conditions;
        Alcotest.test_case "needs external ref" `Quick test_stc_needs_external_ref;
        Alcotest.test_case "intra-function jump" `Quick test_stc_intra_function_jump;
        Alcotest.test_case "two jumping functions" `Quick test_stc_two_jumping_functions;
        Alcotest.test_case "backward target" `Quick test_stc_backward_target;
        Alcotest.test_case "same-function sites" `Quick test_stc_same_function_multiple_sites;
        QCheck_alcotest.to_alcotest test_stc_vs_oracle_random;
        Alcotest.test_case "select_tail_calls = list oracle (corpus)" `Quick
          test_stc_vs_oracle_corpus;
      ] );
    ( "funseeker.end_to_end",
      [
        Alcotest.test_case "exact on simple programs" `Quick test_perfect_on_simple_program;
        Alcotest.test_case "filters setjmp return" `Quick test_filter_endbr_setjmp;
        Alcotest.test_case "filters landing pads" `Quick test_filter_endbr_landing_pads;
        Alcotest.test_case "recovers tail targets" `Quick test_tail_call_recovery;
        Alcotest.test_case "single-ref tail stays FN" `Quick test_single_ref_tail_is_fn;
        Alcotest.test_case "dead functions stay FN" `Quick test_dead_function_is_fn;
        Alcotest.test_case "part fragments are FP" `Quick test_part_fp;
        Alcotest.test_case "config recall ordering" `Quick test_config_ordering;
        Alcotest.test_case "strip-invariant" `Quick test_stripped_equals_unstripped;
        Alcotest.test_case "from bytes" `Quick test_of_bytes;
        Alcotest.test_case "counters" `Quick test_counters_consistency;
        Alcotest.test_case "indirect-return calls = sweep model" `Quick
          test_indirect_return_calls;
      ] );
    ( "funseeker.audit",
      [
        Alcotest.test_case "full protection is clean" `Quick test_audit_full_protection_clean;
        Alcotest.test_case "manual endbr is clean" `Quick test_audit_manual_endbr_clean;
        Alcotest.test_case "legacy binaries violate" `Quick test_audit_legacy_violations;
      ] );
    ( "funseeker.study",
      [
        Alcotest.test_case "endbr classification" `Quick test_study_classification;
        Alcotest.test_case "function properties" `Quick test_study_props;
      ] );
  ]
