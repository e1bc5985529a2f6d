(* Tests for the shared per-binary analysis substrate: memoised analysis
   must be indistinguishable from fresh per-tool analysis, and the sweep
   core must hold its allocation budget. *)

module O = Cet_compiler.Options
module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module FS = Core.Funseeker

let check = Alcotest.check
let int_list = Alcotest.(list int)

let build ~profile ~index ~opts =
  let ir = Cet_corpus.Generator.program ~seed:2022 ~profile ~index in
  let res = Cet_compiler.Link.link opts ir in
  ( Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image,
    List.sort_uniq Int.compare (List.map snd res.Cet_compiler.Link.truth) )

(* A small cross-section of the corpus: both compilers, both arches, C and
   C++ (landing pads), and a jump-tables-in-text binary so the anchored
   sweep has something to disagree with the linear one about. *)
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
       ( "gcc-x64-inline-data",
         build ~profile:coreutils ~index:2
           ~opts:{ O.default with jump_tables_in_text = true } );
     ])

(* Every tool, run twice against the same substrate (second call exercises
   the memoised path), must match a fresh analysis from its legacy entry
   point exactly. *)
let test_equivalence () =
  List.iter
    (fun (name, (bytes, truth)) ->
      let reader = Reader.read bytes in
      let st = Substrate.create reader in
      let twice label fresh st_run =
        check int_list (name ^ " " ^ label ^ " (cold)") fresh (st_run ());
        check int_list (name ^ " " ^ label ^ " (memoised)") fresh (st_run ())
      in
      List.iter
        (fun (i, config) ->
          twice
            (Printf.sprintf "funseeker-config%d" i)
            (FS.analyze ~config reader).FS.functions
            (fun () -> (FS.analyze_st ~config st).FS.functions))
        [ (1, FS.config1); (2, FS.config2); (3, FS.config3); (4, FS.config4) ];
      twice "funseeker-anchored"
        (FS.analyze ~anchored:true reader).FS.functions
        (fun () -> (FS.analyze_st ~anchored:true st).FS.functions);
      twice "ida" (Cet_baselines.Ida_like.analyze reader) (fun () ->
          Cet_baselines.Ida_like.analyze_st st);
      twice "ghidra" (Cet_baselines.Ghidra_like.analyze reader) (fun () ->
          Cet_baselines.Ghidra_like.analyze_st st);
      twice "fetch" (Cet_baselines.Fetch.analyze reader) (fun () ->
          Cet_baselines.Fetch.analyze_st st);
      twice "nucleus" (Cet_baselines.Nucleus_like.analyze reader) (fun () ->
          Cet_baselines.Nucleus_like.analyze_st st);
      let model = Cet_baselines.Byteweight.train [ (reader, truth) ] in
      twice "byteweight"
        (Cet_baselines.Byteweight.classify model reader)
        (fun () -> Cet_baselines.Byteweight.classify_st model st);
      (* The audit consumes the same memoised facts. *)
      let fresh_audit = Core.Audit.audit reader in
      let st_audit = Core.Audit.audit_st st in
      check int_list (name ^ " audit violations")
        (List.map (fun v -> v.Core.Audit.v_target) fresh_audit.Core.Audit.violations)
        (List.map (fun v -> v.Core.Audit.v_target) st_audit.Core.Audit.violations);
      check Alcotest.int (name ^ " audit superfluous") fresh_audit.Core.Audit.superfluous
        st_audit.Core.Audit.superfluous)
    (Lazy.force corpus)

(* The full FunSeeker result record (counts included) must survive the
   substrate path, not just the entry list. *)
let test_result_counts () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let reader = Reader.read bytes in
      let fresh = FS.analyze reader in
      let st = FS.analyze_st (Substrate.create reader) in
      check Alcotest.int (name ^ " endbr_total") fresh.FS.endbr_total st.FS.endbr_total;
      check Alcotest.int (name ^ " filtered_ir") fresh.FS.filtered_indirect_return
        st.FS.filtered_indirect_return;
      check Alcotest.int (name ^ " filtered_lp") fresh.FS.filtered_landing_pads
        st.FS.filtered_landing_pads;
      check Alcotest.int (name ^ " call_targets") fresh.FS.call_target_count
        st.FS.call_target_count;
      check Alcotest.int (name ^ " jump_targets") fresh.FS.jump_target_count
        st.FS.jump_target_count;
      check Alcotest.int (name ^ " tail_calls") fresh.FS.tail_calls_selected
        st.FS.tail_calls_selected;
      check Alcotest.int (name ^ " resyncs") fresh.FS.resync_errors st.FS.resync_errors)
    (Lazy.force corpus)

(* The memoised index arrays must agree with the list-level extractors the
   rest of the code has always used. *)
let test_index_arrays () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let st = Substrate.of_bytes bytes in
      let sweep = Substrate.sweep st in
      let ix = Substrate.indexes st in
      check int_list (name ^ " endbrs") (Linear.endbr_addrs sweep)
        (Array.to_list ix.Substrate.endbrs);
      check int_list (name ^ " call_targets") (Linear.call_targets sweep)
        (Array.to_list ix.Substrate.call_targets);
      check int_list (name ^ " jmp_targets") (Linear.jmp_targets sweep)
        (Array.to_list ix.Substrate.jmp_targets);
      check int_list (name ^ " call_sites")
        (List.map (fun (s, _, _) -> s) (Linear.call_sites sweep))
        (Array.to_list ix.Substrate.call_sites);
      check int_list (name ^ " call_rets")
        (List.map (fun (_, r, _) -> r) (Linear.call_sites sweep))
        (Array.to_list ix.Substrate.call_rets);
      check int_list (name ^ " jmp_refs")
        (List.map fst (Linear.jmp_refs sweep))
        (Array.to_list ix.Substrate.jmp_sites))
    (Lazy.force corpus)

(* Sorted-array set algebra, checked against the list model. *)
let test_sorted_set_ops =
  QCheck.Test.make ~name:"sorted set ops match list model" ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (a, b) ->
      let sa = Linear.sort_dedup_ints (Array.of_list a) in
      let sb = Linear.sort_dedup_ints (Array.of_list b) in
      let merged = Array.to_list (Linear.merge_sorted_dedup sa sb) in
      merged = List.sort_uniq Int.compare (a @ b)
      && List.for_all (fun v -> Linear.mem_sorted sa v) a
      && List.for_all
           (fun v -> Linear.mem_sorted sa v = List.mem v a)
           (List.init 30 Fun.id))

(* The telemetry-off sweep core must stay lean.  Decoding itself allocates
   the instruction records (and dominates), so the bound is on the sweep's
   *overhead* over a bare decode loop: the doubling buffer plus the final
   [Array.sub] cost ~2 words per instruction amortised, while the old
   List.rev + Array.of_list accumulator cost ~7.  Budget 4 with headroom. *)
let test_sweep_allocation_budget () =
  let bytes, _ = List.assoc "gcc-x64-cpp" (Lazy.force corpus) in
  let reader = Reader.read bytes in
  assert (not (Cet_telemetry.Span.enabled ()));
  let warm = Linear.sweep_text reader in
  let { Linear.arch; base; code; _ } = warm in
  let size = String.length code in
  let decode_only () =
    let off = ref 0 in
    while !off < size do
      match Cet_x86.Decoder.decode arch code ~base ~off:!off with
      | Ok ins -> off := !off + ins.Cet_x86.Decoder.len
      | Error _ -> incr off
    done
  in
  decode_only ();
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let decode_words = measure decode_only in
  let sweep_words = measure (fun () -> ignore (Linear.sweep_text reader)) in
  let n = float_of_int (Array.length warm.Linear.insns) in
  let overhead = (sweep_words -. decode_words) /. n in
  if overhead > 4.0 then
    Alcotest.failf
      "sweep core overhead is %.1f minor words per instruction (budget 4)" overhead

(* --- stream-free scan vs sweep-derived products ------------------------ *)

(* The stream-free scan (what a substrate runs when no sweep is
   cached) and the sweep-derived path must be observationally identical:
   same index arrays, same facts, plain and anchored. *)
let check_scan_matches tag bytes =
  List.iter
    (fun anchored ->
      let tag = Printf.sprintf "%s anchored=%b" tag anchored in
      let scan_st = Substrate.of_bytes bytes in
      let ix_scan = Substrate.indexes ~anchored scan_st in
      let fx_scan = Substrate.facts ~anchored scan_st in
      let sweep_st = Substrate.of_bytes bytes in
      ignore
        (if anchored then Substrate.sweep_anchored sweep_st
         else Substrate.sweep sweep_st);
      let ix_sweep = Substrate.indexes ~anchored sweep_st in
      let fx_sweep = Substrate.facts ~anchored sweep_st in
      let arr field f =
        check int_list (tag ^ " " ^ field)
          (Array.to_list (f ix_sweep))
          (Array.to_list (f ix_scan))
      in
      arr "endbrs" (fun i -> i.Substrate.endbrs);
      arr "call_sites" (fun i -> i.Substrate.call_sites);
      arr "call_rets" (fun i -> i.Substrate.call_rets);
      arr "call_tgts" (fun i -> i.Substrate.call_tgts);
      arr "call_targets" (fun i -> i.Substrate.call_targets);
      arr "jmp_sites" (fun i -> i.Substrate.jmp_sites);
      arr "jmp_tgts" (fun i -> i.Substrate.jmp_tgts);
      arr "jmp_targets" (fun i -> i.Substrate.jmp_targets);
      check Alcotest.int (tag ^ " f_base") fx_sweep.Substrate.f_base
        fx_scan.Substrate.f_base;
      check Alcotest.int (tag ^ " f_size") fx_sweep.Substrate.f_size
        fx_scan.Substrate.f_size;
      check Alcotest.int (tag ^ " resyncs") fx_sweep.Substrate.f_resync_errors
        fx_scan.Substrate.f_resync_errors;
      check Alcotest.int (tag ^ " insns") fx_sweep.Substrate.f_insns
        fx_scan.Substrate.f_insns)
    [ false; true ]

let test_scan_matches_corpus () =
  List.iter (fun (name, (bytes, _)) -> check_scan_matches name bytes) (Lazy.force corpus)

let image_with_text arch text =
  Cet_elf.Writer.write
    {
      Cet_elf.Image.arch;
      machine = None;
      pie = true;
      cet_note = true;
      entry = 0x1000;
      sections =
        [
          Cet_elf.Image.section ~name:".text"
            ~flags:(Cet_elf.Consts.shf_alloc lor Cet_elf.Consts.shf_execinstr)
            ~addralign:16 ~vaddr:0x1000 text;
        ];
      symbols = [];
      dynsyms = [];
      plt_relocs = [];
    }

(* Random bytes with candidate patterns (end branches, direct calls and
   jumps) planted at random spots, so both scan loops have real index
   entries to harvest and anchors to resynchronise at. *)
let planted_code_gen =
  QCheck.Gen.(
    string_size ~gen:char (int_range 1 160) >>= fun raw ->
    list_size (int_range 0 8)
      (pair (int_range 0 4) (int_range 0 (max 0 (String.length raw - 1))))
    >|= fun spots ->
    let pool =
      [|
        "\xf3\x0f\x1e\xfa"; "\xf3\x0f\x1e\xfb"; "\xe8\x10\x00\x00\x00";
        "\xe9\xf0\xff\xff\xff"; "\xeb\x04";
      |]
    in
    let b = Bytes.of_string raw in
    List.iter
      (fun (which, i) ->
        let p = pool.(which) in
        let len = min (String.length p) (Bytes.length b - i) in
        Bytes.blit_string p 0 b i len)
      spots;
    Bytes.to_string b)

let test_scan_matches_planted =
  QCheck.Test.make ~name:"scan = sweep-derived on planted code" ~count:100
    (QCheck.make ~print:(Printf.sprintf "%S") planted_code_gen)
    (fun code ->
      List.iter
        (fun arch -> check_scan_matches "planted" (image_with_text arch code))
        [ Cet_x86.Arch.X64; Cet_x86.Arch.X86 ];
      true)

(* The stream-free scan materialises no instruction records at all — only
   the anchor table and the index buffers — so its whole budget is under
   one minor word per instruction. *)
let test_scan_allocation_budget () =
  let bytes, _ = List.assoc "gcc-x64-cpp" (Lazy.force corpus) in
  assert (not (Cet_telemetry.Span.enabled ()));
  let reader = Reader.read bytes in
  let n =
    float_of_int (Array.length (Linear.sweep_text reader).Linear.insns)
  in
  let run anchored () =
    ignore
      (Sys.opaque_identity (Substrate.indexes ~anchored (Substrate.create reader)))
  in
  run false ();
  run true ();
  List.iter
    (fun anchored ->
      let before = Gc.minor_words () in
      run anchored ();
      let per_insn = (Gc.minor_words () -. before) /. n in
      if per_insn > 1.0 then
        Alcotest.failf "scan (anchored=%b) allocates %.2f minor words per instruction (budget 1)"
          anchored per_insn)
    [ false; true ]

(* Regression (dead-copy fix): [indexes_of_sweep] builds [jmp_targets] by
   sorting a buffer in place.  If that buffer aliased [jmp_tgts], the
   site->target pairing would be scrambled — two jumps with descending
   targets detect any aliasing the moment the sort runs. *)
let test_jmp_tgts_sweep_order () =
  let code = "\xEB\x06\xEB\x00" ^ String.make 8 '\x90' in
  let sweep = Linear.sweep Cet_x86.Arch.X64 ~base:0x1000 code in
  let ix = Substrate.indexes_of_sweep sweep in
  check int_list "sites" [ 0x1000; 0x1002 ] (Array.to_list ix.Substrate.jmp_sites);
  check int_list "tgts stay in sweep order" [ 0x1008; 0x1004 ]
    (Array.to_list ix.Substrate.jmp_tgts);
  check int_list "targets sorted" [ 0x1004; 0x1008 ]
    (Array.to_list ix.Substrate.jmp_targets)

(* Regression (same fix, the perf half): the dead [Array.copy] cost one
   extra minor word per jump on jump-heavy code.  The index build on this
   all-jump sweep is deterministic — buffers, doubling, and the final
   [Array.sub]s — so the budget can sit right above the fixed cost and
   below fixed + 1 word/insn, where the copy would land. *)
let test_indexes_allocation_budget () =
  let n = 8192 in
  let code =
    String.concat "" (List.init n (fun _ -> "\xEB\xFE") (* jmp self *))
  in
  let sweep = Linear.sweep Cet_x86.Arch.X64 ~base:0x1000 code in
  ignore (Substrate.indexes_of_sweep sweep);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Substrate.indexes_of_sweep sweep));
  let words = Gc.minor_words () -. before in
  let per_insn = words /. float_of_int n in
  if per_insn > 4.7 then
    Alcotest.failf "index build allocates %.2f minor words per jump (budget 4.7)"
      per_insn

let suite =
  [
    ( "substrate",
      [
        Alcotest.test_case "memoised = fresh for every tool" `Quick test_equivalence;
        Alcotest.test_case "funseeker counts survive substrate" `Quick test_result_counts;
        Alcotest.test_case "index arrays match list extractors" `Quick test_index_arrays;
        QCheck_alcotest.to_alcotest test_sorted_set_ops;
        Alcotest.test_case "sweep allocation budget" `Quick test_sweep_allocation_budget;
        Alcotest.test_case "scan matches sweep-derived (corpus)" `Quick
          test_scan_matches_corpus;
        QCheck_alcotest.to_alcotest test_scan_matches_planted;
        Alcotest.test_case "scan allocation budget" `Quick test_scan_allocation_budget;
        Alcotest.test_case "jmp_tgts keeps sweep order" `Quick test_jmp_tgts_sweep_order;
        Alcotest.test_case "index build allocation budget" `Quick
          test_indexes_allocation_budget;
      ] );
  ]
