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
   scan has something to disagree with the linear sweep about. *)
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
   the memoised path), must match a fresh analysis — a new substrate per
   call, nothing shared — exactly. *)
let test_equivalence () =
  List.iter
    (fun (name, (bytes, truth)) ->
      let reader = Reader.read bytes in
      let st = Substrate.create reader in
      let fresh run = run (Substrate.create reader) in
      let twice label fresh st_run =
        check int_list (name ^ " " ^ label ^ " (cold)") fresh (st_run ());
        check int_list (name ^ " " ^ label ^ " (memoised)") fresh (st_run ())
      in
      List.iter
        (fun (i, config) ->
          twice
            (Printf.sprintf "funseeker-config%d" i)
            (fresh (FS.analyze_st ~config)).FS.functions
            (fun () -> (FS.analyze_st ~config st).FS.functions))
        [ (1, FS.config1); (2, FS.config2); (3, FS.config3); (4, FS.config4) ];
      twice "funseeker-anchored"
        (fresh (FS.analyze_st ~anchored:true)).FS.functions
        (fun () -> (FS.analyze_st ~anchored:true st).FS.functions);
      twice "ida" (fresh Cet_baselines.Ida_like.analyze_st) (fun () ->
          Cet_baselines.Ida_like.analyze_st st);
      twice "ghidra" (fresh Cet_baselines.Ghidra_like.analyze_st) (fun () ->
          Cet_baselines.Ghidra_like.analyze_st st);
      twice "fetch" (fresh Cet_baselines.Fetch.analyze_st) (fun () ->
          Cet_baselines.Fetch.analyze_st st);
      twice "nucleus" (fresh Cet_baselines.Nucleus_like.analyze_st) (fun () ->
          Cet_baselines.Nucleus_like.analyze_st st);
      let model = Cet_baselines.Byteweight.train [ (Substrate.create reader, truth) ] in
      twice "byteweight"
        (fresh (Cet_baselines.Byteweight.classify_st model))
        (fun () -> Cet_baselines.Byteweight.classify_st model st);
      (* The audit consumes the same memoised facts. *)
      let fresh_audit = fresh Core.Audit.audit_st in
      let st_audit = Core.Audit.audit_st st in
      check int_list (name ^ " audit violations")
        (List.map (fun v -> v.Core.Audit.v_target) fresh_audit.Core.Audit.violations)
        (List.map (fun v -> v.Core.Audit.v_target) st_audit.Core.Audit.violations);
      check Alcotest.int (name ^ " audit superfluous") fresh_audit.Core.Audit.superfluous
        st_audit.Core.Audit.superfluous)
    (Lazy.force corpus)

(* The full FunSeeker result record (counts included) must be the same
   whether the substrate's indexes come from the stream-free scan (a fresh
   substrate) or from an already-memoised sweep. *)
let test_result_counts () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let fresh = FS.analyze_st (Substrate.of_bytes bytes) in
      let st =
        let st = Substrate.of_bytes bytes in
        ignore (Substrate.sweep st : Linear.t);
        FS.analyze_st st
      in
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

(* On well-formed binaries the robust constructor changes nothing: every
   configuration, linear and anchored, computes the production result
   (counts included), and nothing is reported. *)
let test_diag_substrate_matches () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let st =
        match Substrate.of_bytes_diag bytes with
        | Ok st -> st
        | Error d -> Alcotest.failf "%s: %s" name (Cet_util.Diag.to_string d)
      in
      List.iter
        (fun anchored ->
          List.iteri
            (fun i config ->
              let want = FS.analyze_st ~config ~anchored (Substrate.of_bytes bytes) in
              check Alcotest.bool
                (Printf.sprintf "%s config%d anchored=%b" name (i + 1) anchored)
                true
                (FS.analyze_st ~config ~anchored st = want))
            [ FS.config1; FS.config2; FS.config3; FS.config4 ])
        [ false; true ];
      check Alcotest.(list string) (name ^ " diags") []
        (List.map Cet_util.Diag.to_string (Substrate.diags st)))
    (Lazy.force corpus)

(* The index arrays a substrate sweep harvests must agree with the
   list-level extractors (the index-build oracle) over the reference
   sweep. *)
let test_index_arrays () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let st = Substrate.of_bytes bytes in
      ignore (Substrate.sweep st : Linear.t);
      let ix = Substrate.indexes st in
      let sweep = Oracle_sweep.sweep_text_reference (Substrate.reader st) in
      check int_list (name ^ " endbrs") (Oracle_sweep.endbr_addrs sweep)
        (Array.to_list ix.Substrate.endbrs);
      check int_list (name ^ " call_targets") (Oracle_sweep.call_targets sweep)
        (Array.to_list ix.Substrate.call_targets);
      check int_list (name ^ " jmp_targets") (Oracle_sweep.jmp_targets sweep)
        (Array.to_list ix.Substrate.jmp_targets);
      check int_list (name ^ " call_sites")
        (List.map (fun (s, _, _) -> s) (Oracle_sweep.call_sites sweep))
        (Array.to_list ix.Substrate.call_sites);
      check int_list (name ^ " call_rets")
        (List.map (fun (_, r, _) -> r) (Oracle_sweep.call_sites sweep))
        (Array.to_list ix.Substrate.call_rets);
      check int_list (name ^ " jmp_refs")
        (List.map fst (Oracle_sweep.jmp_refs sweep))
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

(* The telemetry-off sweep must stay lean.  The walk writes the stream
   into its domain's off-heap buffer and copies it out at its exact
   length, in arrays too large for the minor heap, so nothing is
   allocated there per instruction: the budget is the scan's, one minor
   word per instruction.  Records cost ~4, and the record stream's buffer
   ~2 more. *)
let test_sweep_allocation_budget () =
  let bytes, _ = List.assoc "gcc-x64-cpp" (Lazy.force corpus) in
  let reader = Reader.read bytes in
  let text = Option.get (Reader.find_section reader ".text") in
  assert (not (Cet_telemetry.Span.enabled ()));
  let sweep () = Sweep.blob (Reader.arch reader) ~base:text.vaddr text.data in
  let n = float_of_int (Linear.length (sweep ())) in
  let measure what f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let per_insn = (Gc.minor_words () -. before) /. n in
    if per_insn > 1.0 then
      Alcotest.failf "%s allocates %.2f minor words per instruction (budget 1)" what per_insn
  in
  measure "a blob sweep" sweep;
  let st = Substrate.create reader in
  ignore (Substrate.facts st : Substrate.facts);
  measure "substrate sweep after the scan" (fun () -> Substrate.sweep st)

(* A first sweep, with nothing memoised, fills the stream, the harvest
   and the indexes in one walk.  Their large arrays go straight to the
   major heap, where the minor budget above cannot see them: the stream
   copied out at its exact length is 2.25 words per instruction, and the
   index arrays most of the rest.  Measured 3.29 words per instruction
   on this binary; the budget adds the minor budget's headroom, one
   word.  A stream grown from a [size/4] hint and then trimmed cost 5.54
   here. *)
let test_first_sweep_major_budget () =
  let bytes, _ = List.assoc "gcc-x64-cpp" (Lazy.force corpus) in
  let reader = Reader.read bytes in
  assert (not (Cet_telemetry.Span.enabled ()));
  let n = float_of_int (Linear.length (Substrate.sweep (Substrate.create reader))) in
  let st = Substrate.create reader in
  Gc.minor ();
  let _, _, before = Gc.counters () in
  ignore (Sys.opaque_identity (Substrate.sweep st));
  let _, _, after = Gc.counters () in
  let per_insn = (after -. before) /. n in
  if per_insn > 4.4 then
    Alcotest.failf
      "first substrate sweep allocates %.2f major words per instruction (budget 4.4)" per_insn

(* --- stream-free scan vs sweep-derived products ------------------------ *)

(* The walk order must not matter.  A substrate swept first fills the
   stream, the index arrays and the facts in one walk (what the harness
   does); one scanned first runs the stream-free scan (what FunSeeker's
   path does), then a stream-only sweep.  Both must hold the same index
   arrays and facts, and both streams must be the reference sweep.  The
   anchored walk keeps no stream: its scan's index arrays and facts must
   be the anchored reference sweep's. *)
let check_scan_matches tag bytes =
  let reader = Reader.read bytes in
  let scan_st = Substrate.create reader in
  let ix_scan = Substrate.indexes scan_st in
  let fx_scan = Substrate.facts scan_st in
  let sweep_st = Substrate.create reader in
  let swept_first = Substrate.sweep sweep_st in
  let ix_sweep = Substrate.indexes sweep_st in
  let fx_sweep = Substrate.facts sweep_st in
  let arr field f =
    check int_list (tag ^ " " ^ field) (Array.to_list (f ix_sweep)) (Array.to_list (f ix_scan))
  in
  arr "endbrs" (fun i -> i.Substrate.endbrs);
  arr "call_sites" (fun i -> i.Substrate.call_sites);
  arr "call_rets" (fun i -> i.Substrate.call_rets);
  arr "call_tgts" (fun i -> i.Substrate.call_tgts);
  arr "call_targets" (fun i -> i.Substrate.call_targets);
  arr "jmp_sites" (fun i -> i.Substrate.jmp_sites);
  arr "jmp_tgts" (fun i -> i.Substrate.jmp_tgts);
  arr "jmp_targets" (fun i -> i.Substrate.jmp_targets);
  check Alcotest.int (tag ^ " f_base") fx_sweep.Substrate.f_base fx_scan.Substrate.f_base;
  check Alcotest.int (tag ^ " f_size") fx_sweep.Substrate.f_size fx_scan.Substrate.f_size;
  check Alcotest.int (tag ^ " resyncs") fx_sweep.Substrate.f_resync_errors
    fx_scan.Substrate.f_resync_errors;
  check Alcotest.int (tag ^ " insns") fx_sweep.Substrate.f_insns fx_scan.Substrate.f_insns;
  let reference = Oracle_sweep.sweep_text_reference reader in
  List.iter
    (fun (order, sw) ->
      match Oracle_sweep.stream_mismatch sw reference with
      | None -> ()
      | Some why -> Alcotest.failf "%s %s: stream %s" tag order why)
    [ ("swept first", swept_first); ("scanned first", Substrate.sweep scan_st) ];
  let anchored = Substrate.create reader in
  match
    Oracle_sweep.scan_mismatch
      (Substrate.indexes ~anchored:true anchored)
      (Substrate.facts ~anchored:true anchored)
      (Oracle_sweep.sweep_text_reference ~anchored:true reader)
  with
  | None -> ()
  | Some why -> Alcotest.failf "%s anchored scan: %s" tag why

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
  let n = float_of_int (Linear.length (Substrate.sweep (Substrate.create reader))) in
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

(* A substrate over [code] as an x86-64 [.text] at 0x1000 whose sweep is
   already memoised, so its indexes are built from the instruction
   stream. *)
let swept_substrate code =
  let st = Substrate.of_bytes (image_with_text Cet_x86.Arch.X64 code) in
  ignore (Substrate.sweep st : Linear.t);
  st

(* Regression (dead-copy fix): the index build a sweep harvests makes
   [jmp_targets] by sorting a buffer in place.  If that buffer aliased
   [jmp_tgts], the site->target pairing would be scrambled — two jumps
   with descending targets detect any aliasing the moment the sort runs. *)
let test_jmp_tgts_sweep_order () =
  let code = "\xEB\x06\xEB\x00" ^ String.make 8 '\x90' in
  let ix = Substrate.indexes (swept_substrate code) in
  check int_list "sites" [ 0x1000; 0x1002 ] (Array.to_list ix.Substrate.jmp_sites);
  check int_list "tgts stay in sweep order" [ 0x1008; 0x1004 ]
    (Array.to_list ix.Substrate.jmp_tgts);
  check int_list "targets sorted" [ 0x1004; 0x1008 ]
    (Array.to_list ix.Substrate.jmp_targets)

(* Regression (same fix, the perf half): the dead [Array.copy] cost one
   extra minor word per jump on jump-heavy code.  A sweep of this all-jump
   code that harvests the indexes is deterministic — the stream, the
   buffers, doubling, and the final [Array.sub]s — so the budget can sit
   right above the fixed cost and below fixed + 1 word/insn, where the
   copy would land. *)
let test_indexes_allocation_budget () =
  let n = 8192 in
  let code =
    String.concat "" (List.init n (fun _ -> "\xEB\xFE") (* jmp self *))
  in
  let image = image_with_text Cet_x86.Arch.X64 code in
  let sweep_with_indexes () =
    let st = Substrate.of_bytes image in
    ignore (Sys.opaque_identity (Substrate.sweep st));
    ignore (Sys.opaque_identity (Substrate.indexes st))
  in
  sweep_with_indexes ();
  let before = Gc.minor_words () in
  sweep_with_indexes ();
  let words = Gc.minor_words () -. before in
  let per_insn = words /. float_of_int n in
  if per_insn > 4.7 then
    Alcotest.failf "index build allocates %.2f minor words per jump (budget 4.7)"
      per_insn

(* --- the stream against its oracles ------------------------------------ *)

(* Every instruction of the parallel-array stream, rebuilt as a record,
   must be the reference sweep's record, with the same resync count — for
   the corpus' [.text] decoded as both architectures, and for both ways a
   substrate fills its stream (exactly sized after the scan, grown while
   harvesting before it).  The anchored walk keeps no stream: its scan of
   the same bytes, as both architectures, must hold the index arrays and
   facts the anchored reference sweep's extractors give. *)
let test_stream_matches_oracle () =
  let expect tag = function None -> () | Some why -> Alcotest.failf "%s: %s" tag why in
  List.iter
    (fun (name, (bytes, _truth)) ->
      let reader = Reader.read bytes in
      let text = Option.get (Reader.find_section reader ".text") in
      List.iter
        (fun arch ->
          let tag = Printf.sprintf "%s as %s" name (Cet_x86.Arch.to_string arch) in
          expect tag
            (Oracle_sweep.stream_mismatch
               (Sweep.blob arch ~base:text.vaddr text.data)
               (Oracle_sweep.sweep_reference arch ~base:text.vaddr text.data));
          let st = Substrate.of_bytes (image_with_text arch text.data) in
          expect (tag ^ " anchored scan")
            (Oracle_sweep.scan_mismatch
               (Substrate.indexes ~anchored:true st)
               (Substrate.facts ~anchored:true st)
               (Oracle_sweep.sweep_anchored_reference arch ~base:0x1000 text.data)))
        [ Cet_x86.Arch.X64; Cet_x86.Arch.X86 ];
      let oracle = Oracle_sweep.sweep_text_reference reader in
      expect (name ^ " substrate")
        (Oracle_sweep.stream_mismatch (Substrate.sweep (Substrate.create reader)) oracle);
      let scanned = Substrate.create reader in
      ignore (Substrate.facts scanned : Substrate.facts);
      expect (name ^ " substrate after scan")
        (Oracle_sweep.stream_mismatch (Substrate.sweep scanned) oracle))
    (Lazy.force corpus)

(* The stream's footprint: two int arrays and two bytes per instruction,
   plus the code bytes, stay within 3 words per instruction; the record
   stream took about 7. *)
let test_stream_footprint () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let sweep = Substrate.sweep (Substrate.of_bytes bytes) in
      let per_insn =
        float_of_int (Obj.reachable_words (Obj.repr sweep))
        /. float_of_int (Linear.length sweep)
      in
      if per_insn > 3.0 then
        Alcotest.failf "%s: stream takes %.2f words per instruction (budget 3)" name per_insn)
    (Lazy.force corpus)

(* The array kernels against the record-based ones they replaced
   ([Oracle_baselines], over the reference sweep of the same bytes):
   [entry_main_root], traversal (functions and visited bytes) from each
   root set, prologue hits in both modes with and without [visited] and
   [suppress], and FETCH's tail targets over each extent list (the one
   production walk against the oracle's retired multi-pass model). *)
let check_kernels tag (sw : Linear.t) ref_sw ~entry ~root_sets ~suppress ~extent_sets =
  let module C = Cet_baselines.Common in
  let module O = Oracle_baselines in
  let tag what = tag ^ " " ^ what in
  check
    Alcotest.(option int)
    (tag "entry_main_root")
    (O.entry_main_root ref_sw ~entry)
    (C.entry_main_root sw ~entry);
  List.iteri
    (fun r roots ->
      let e = C.explore sw ~roots and o = O.explore ref_sw ~roots in
      check int_list (tag (Printf.sprintf "explore %d functions" r)) o.O.e_functions
        e.C.e_functions;
      check Alcotest.bool
        (tag (Printf.sprintf "explore %d visited" r))
        true
        (Bytes.equal o.O.e_visited e.C.e_visited);
      List.iter
        (fun aggressive ->
          List.iter
            (fun (visited, suppress) ->
              check int_list
                (tag
                   (Printf.sprintf "prologue %d aggressive=%b visited=%b suppress=%b" r
                      aggressive (visited <> None) (suppress <> None)))
                (O.prologue_scan ref_sw ~known:e.C.e_functions ~aggressive ?visited ?suppress
                   ())
                (C.prologue_scan sw ~known:e.C.e_functions ~aggressive ?visited ?suppress ()))
            [
              (None, None);
              (Some e.C.e_visited, None);
              (None, Some suppress);
              (Some e.C.e_visited, Some suppress);
            ])
        [ false; true ])
    root_sets;
  List.iter
    (fun extents ->
      check int_list (tag "tail targets")
        (O.stack_height_tail_targets ref_sw ~extents ~passes:3)
        (C.stack_height_tail_targets sw ~extents))
    extent_sets

(* On the corpus: roots from the entry point and the FDEs, extents as
   FETCH-like derives them and as the FDEs record them. *)
let test_kernels_match_oracles () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let reader = Reader.read bytes in
      let st = Substrate.create reader in
      let entry = Reader.entry reader in
      let fdes = Substrate.fde_starts st in
      let extents = Substrate.fde_extents st in
      let sw = Substrate.sweep st in
      let text_end = sw.Linear.base + sw.Linear.size in
      let starts =
        Array.of_list (List.filter (fun a -> a >= sw.Linear.base && a < text_end) fdes)
      in
      let fetch_extents =
        Array.to_list
          (Array.mapi
             (fun i lo -> (lo, if i + 1 < Array.length starts then starts.(i + 1) else text_end))
             starts)
      in
      check_kernels name sw (Oracle_sweep.sweep_text_reference reader) ~entry
        ~root_sets:
          [
            [ entry ];
            entry :: fdes;
            (* mid-instruction, before and past the region *)
            (entry + 1) :: (sw.Linear.base - 1) :: text_end :: fdes;
          ]
        ~suppress:extents
        ~extent_sets:[ fetch_extents; extents; List.map (fun (lo, hi) -> (hi, lo)) extents ])
    (Lazy.force corpus)

(* Code for the kernel oracles: runs of snippets — prologues, stack
   adjustments, leave, register definitions, branches both ways,
   end-branches, returns, bytes no architecture decodes (gaps in the
   stream) — and random bytes. *)
let kernel_code_gen =
  let pool =
    [|
      "\x55\x48\x89\xe5"; "\x55\x89\xe5"; "\x53"; "\x48\x83\xec\x18"; "\x83\xec\x0c";
      "\x48\x83\xc4\x18"; "\x83\xc4\x0c"; "\xc9"; "\xc3"; "\xcc"; "\x90"; "\x89\xc7";
      "\x31\xc0"; "\xb8\x01\x00\x00\x00"; "\xf3\x0f\x1e\xfa"; "\xf3\x0f\x1e\xfb";
      "\xe8\x05\x00\x00\x00"; "\xe9\xf0\xff\xff\xff"; "\xe9\x20\x00\x00\x00"; "\xeb\x04";
      "\xeb\xe0"; "\x74\xfa"; "\x0f\x0b";
      "\x48\x8d\x3d\x10\x00\x00\x00"; "\x68\x10\x10\x00\x00"; "\x67\x67";
    |]
  in
  QCheck.Gen.(
    list_size (int_range 1 60)
      (oneof
         [
           map (fun i -> pool.(i)) (int_bound (Array.length pool - 1));
           string_size ~gen:char (int_range 1 3);
         ])
    >|= String.concat "")

let test_kernels_match_oracles_random =
  QCheck.Test.make ~name:"kernels = record-based oracles on random code" ~count:200
    (QCheck.make ~print:(Printf.sprintf "%S") kernel_code_gen)
    (fun code ->
      let base = 0x1000 and n = String.length code in
      List.iter
        (fun arch ->
          check_kernels (Cet_x86.Arch.to_string arch) (Sweep.blob arch ~base code)
            (Oracle_sweep.sweep_reference arch ~base code) ~entry:base
            ~root_sets:[ [ base ]; [ base; base + (n / 3); base + (n / 2) + 1 ] ]
            ~suppress:[ (base + (n / 4), base + (n / 2)) ]
            ~extent_sets:
              [
                [ (base, base + n) ];
                [ (base, base + (n / 2)); (base + (n / 2), base + n) ];
                (* small extents, so jumps leave them *)
                List.init ((n / 16) + 1) (fun i -> (base + (16 * i), base + (16 * (i + 1))));
              ])
        [ Cet_x86.Arch.X64; Cet_x86.Arch.X86 ];
      true)

(* --- CET end-branches as disassembly checkpoints -------------------------- *)

(* On compiler-generated code every end-branch byte pattern
   ([Prescan.anchor_offsets]) starts an instruction of the plain sweep —
   inline data included, where the plain sweep resynchronises before it
   reaches the next marker — so a walk may be split at any anchor.
   Returns the anchors that fall inside an instruction instead, and the
   anchor count. *)
let anchors_inside bytes =
  let reader = Reader.read bytes in
  let text = Option.get (Reader.find_section reader ".text") in
  let sweep = Substrate.sweep (Substrate.create reader) in
  let anchors = Cet_disasm.Prescan.anchor_offsets (Reader.arch reader) text.Reader.data in
  ( List.filter
      (fun a -> Linear.index_of sweep (text.Reader.vaddr + a) < 0)
      (Array.to_list anchors),
    Array.length anchors )

let check_anchors name bytes =
  let inside, total = anchors_inside bytes in
  if total = 0 then Alcotest.failf "%s: no anchors to check" name;
  match inside with
  | [] -> ()
  | a :: _ ->
    Alcotest.failf "%s: %d of %d anchors inside an instruction, first at offset %d" name
      (List.length inside) total a

let test_anchors_are_boundaries_corpus () =
  List.iter (fun (name, (bytes, _)) -> check_anchors name bytes) (Lazy.force corpus);
  (* The check sees a marker hidden in an immediate ([mov eax, imm32]). *)
  check int_list "marker inside an instruction" [ 1 ]
    (fst (anchors_inside (image_with_text Cet_x86.Arch.X64 "\xb8\xf3\x0f\x1e\xfa\xc3")))

(* One Coreutils-like program under every configuration of the grid. *)
let test_anchors_are_boundaries_grid () =
  let profile = Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.coreutils in
  List.iter
    (fun (opts : O.t) ->
      let bytes, _ = build ~profile ~index:0 ~opts in
      check_anchors (O.to_string opts) bytes)
    O.all_grid

let test_scan_matches_grid () =
  let profile = Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.coreutils in
  List.iter
    (fun (opts : O.t) ->
      let bytes, _ = build ~profile ~index:0 ~opts in
      check_scan_matches (O.to_string opts) bytes)
    O.all_grid

(* --- the padding bit against the exact parse ------------------------------ *)

(* Does the exact parse at [off] read a NOP or an INT3? *)
let exact_padding arch code off =
  match Cet_x86.Exact.decode arch code ~off with
  | Some ((Cet_x86.Insn.Nop | Nopl _ | Int3), _) -> true
  | _ -> false

(* The sweep marks padding exactly where the exact parse reads NOP or
   INT3 fill, on every instruction of a binary. *)
let check_padding tag bytes =
  let sw = Substrate.sweep (Substrate.of_bytes bytes) in
  for i = 0 to Linear.length sw - 1 do
    let off = Linear.addr sw i - sw.Linear.base in
    let want = exact_padding sw.Linear.arch sw.Linear.code off in
    if Linear.padding sw i <> want then
      Alcotest.failf "%s: padding bit %b at 0x%x (%s), exact parse %b" tag (not want)
        (Linear.addr sw i)
        (Hexdump.bytes_inline (String.sub sw.Linear.code off (Linear.len sw i)))
        want
  done

let test_padding_bit_corpus () =
  List.iter (fun (name, (bytes, _)) -> check_padding name bytes) (Lazy.force corpus)

let test_padding_bit_grid () =
  let profile = Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.coreutils in
  List.iter
    (fun (opts : O.t) ->
      let bytes, _ = build ~profile ~index:0 ~opts in
      check_padding (O.to_string opts) bytes)
    O.all_grid

(* Where the two differ by design: the decoder's opcode lookup marks [90]
   and [CC] under a segment prefix, and GCC's ten-byte
   [nopw %cs:0x0(%rax,%rax,1)], all of which the exact parse leaves to
   the printer's fallback. *)
let test_padding_bit_by_design () =
  List.iter
    (fun code ->
      let tag = Hexdump.bytes_inline code in
      let sw = Sweep.blob Cet_x86.Arch.X64 code in
      check Alcotest.int (tag ^ ": one instruction") 1 (Linear.length sw);
      check Alcotest.int (tag ^ ": all its bytes") (String.length code) (Linear.len sw 0);
      check Alcotest.bool (tag ^ ": padding") true (Linear.padding sw 0);
      check Alcotest.bool (tag ^ ": no exact NOP or INT3") false
        (exact_padding Cet_x86.Arch.X64 code 0);
      check Alcotest.string (tag ^ ": printed as its kind") "other"
        (Cet_x86.Exact.disassemble Cet_x86.Arch.X64 code ~base:0 (Linear.ins sw 0)))
    [ "\x26\x90"; "\x64\x90"; "\x2e\xcc"; "\x66\x2e\x0f\x1f\x84\x00\x00\x00\x00\x00" ]

(* Every tool that walks the instruction stream, run over the corpus and
   hashed: IDA-, Ghidra-, FETCH-, Nucleus- and ByteWeight-like, CFG
   recovery and the CET audit.  The stream's representation and the
   kernels walking it may change; these bytes may not. *)
let tool_outputs_md5 = "8d37abcdff767f1268c76188d778890f"

let test_tool_outputs_pinned () =
  let buf = Buffer.create 65536 in
  let add v = Buffer.add_string buf (Marshal.to_string v [ Marshal.No_sharing ]) in
  List.iter
    (fun (_name, (bytes, truth)) ->
      let reader = Reader.read bytes in
      let st = Substrate.create reader in
      add (Cet_baselines.Ida_like.analyze_st st);
      add (Cet_baselines.Ghidra_like.analyze_st st);
      add (Cet_baselines.Fetch.analyze_st st);
      add (Cet_baselines.Nucleus_like.analyze_st st);
      let model = Cet_baselines.Byteweight.train [ (st, truth) ] in
      add (Cet_baselines.Byteweight.classify_st model st);
      add (Cet_cfg.Cfg.recover_st st);
      add (Core.Audit.audit_st st))
    (Lazy.force corpus);
  check Alcotest.string "tool outputs" tool_outputs_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- the bucket index against binary search ------------------------------ *)

(* [Linear.first_index_at] and [index_of] answer from the bucket index;
   they must equal the binary search over the reference sweep of the same
   bytes at every address from one before the region to one past its
   end, and each bucket entry must be the first instruction at or after
   its bucket's first address. *)
let check_lookup tag (sw : Linear.t) (ref_sw : Oracle_sweep.t) =
  let module O = Oracle_baselines in
  let fail what a got want =
    Alcotest.failf "%s: %s 0x%x = %d, binary search says %d" tag what a got want
  in
  for a = sw.Linear.base - 1 to sw.Linear.base + sw.Linear.size + 1 do
    let got = Linear.first_index_at sw a and want = O.first_index_at ref_sw a in
    if got <> want then fail "first_index_at" a got want;
    let got = Linear.index_of sw a
    and want = match O.index_of ref_sw a with Some i -> i | None -> -1 in
    if got <> want then fail "index_of" a got want
  done;
  let buckets = sw.Linear.buckets in
  if Bytes.length buckets <> 4 * ((sw.Linear.size + 15) / 16) then
    Alcotest.failf "%s: %d bucket bytes for a %d-byte region" tag (Bytes.length buckets)
      sw.Linear.size;
  for b = 0 to (Bytes.length buckets / 4) - 1 do
    let a = sw.Linear.base + (16 * b) in
    let got = Int32.to_int (Bytes.get_int32_le buckets (4 * b)) in
    let want = O.first_index_at ref_sw a in
    if got <> want then fail (Printf.sprintf "bucket %d at" b) a got want
  done

(* The four binaries; the inline-data one has gaps. *)
let test_lookup_matches_binary_search () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let reader = Reader.read bytes in
      check_lookup name
        (Substrate.sweep (Substrate.create reader))
        (Oracle_sweep.sweep_text_reference reader))
    (Lazy.force corpus)

let test_lookup_matches_binary_search_random =
  QCheck.Test.make ~name:"bucket lookup = binary search on random code" ~count:200
    (QCheck.make ~print:(Printf.sprintf "%S") kernel_code_gen)
    (fun code ->
      let base = 0x1003 in
      List.iter
        (fun arch ->
          check_lookup (Cet_x86.Arch.to_string arch) (Sweep.blob arch ~base code)
            (Oracle_sweep.sweep_reference arch ~base code))
        [ Cet_x86.Arch.X64; Cet_x86.Arch.X86 ];
      true)

(* --- the resumed traversal ------------------------------------------------ *)

(* With [r2] holding every in-range root of [r1], resuming [explore r1]
   from [r2] must equal exploring [r2] afresh, functions and visited bytes
   alike; resuming from roots already explored must change nothing. *)
let check_extend tag (sw : Linear.t) ~r1 ~r2 =
  let module C = Cet_baselines.Common in
  let same what (a : C.explored) (b : C.explored) =
    check int_list (tag ^ " " ^ what ^ " functions") a.C.e_functions b.C.e_functions;
    if not (Bytes.equal a.C.e_visited b.C.e_visited) then
      Alcotest.failf "%s %s: visited bytes differ" tag what
  in
  same "extend = explore"
    (C.explore sw ~roots:r2)
    (C.extend sw (C.explore sw ~roots:r1) ~roots:r2);
  let ex = C.explore sw ~roots:r1 in
  let before = { ex with C.e_visited = Bytes.copy ex.C.e_visited } in
  same "extend by its roots" before (C.extend sw ex ~roots:r1);
  same "extend by its functions" before (C.extend sw ex ~roots:ex.C.e_functions)

(* Root sets as the tools build them, and a first set that holds roots
   outside the region and mid-instruction, which the second may drop. *)
let test_extend_matches_explore () =
  List.iter
    (fun (name, (bytes, _truth)) ->
      let reader = Reader.read bytes in
      let st = Substrate.create reader in
      let entry = Reader.entry reader in
      let fdes = Substrate.fde_starts st in
      let sw = Substrate.sweep st in
      let text_end = sw.Linear.base + sw.Linear.size in
      let half = List.filteri (fun i _ -> i mod 2 = 0) fdes in
      let hits =
        Cet_baselines.Common.prologue_scan sw ~known:[] ~aggressive:true
          ~visited:(Cet_baselines.Common.explore sw ~roots:[ entry ]).e_visited ()
      in
      check_extend (name ^ " entry, then fdes") sw ~r1:[ entry ] ~r2:(fdes @ [ entry ]);
      check_extend (name ^ " half, then hits") sw
        ~r1:((sw.Linear.base - 1) :: text_end :: (entry + 1) :: entry :: half)
        ~r2:(hits @ ((entry + 1) :: entry :: fdes)))
    (Lazy.force corpus)

let test_extend_matches_explore_random =
  let gen =
    QCheck.Gen.(
      triple kernel_code_gen (list_size (int_range 0 8) (int_range (-2) 256))
        (list_size (int_range 0 8) (int_range (-2) 256)))
  in
  QCheck.Test.make ~name:"extend = explore on random code and roots" ~count:200
    (QCheck.make
       ~print:(fun (code, r1, r2) ->
         Printf.sprintf "%S r1=[%s] r2=[%s]" code
           (String.concat ";" (List.map string_of_int r1))
           (String.concat ";" (List.map string_of_int r2)))
       gen)
    (fun (code, r1, extra) ->
      let base = 0x1000 and n = String.length code in
      let r1 = List.map (fun o -> base + o) r1 in
      let r2 =
        List.filter (fun a -> a >= base && a < base + n) r1
        @ List.map (fun o -> base + o) extra
      in
      List.iter
        (fun arch ->
          check_extend (Cet_x86.Arch.to_string arch) (Sweep.blob arch ~base code) ~r1 ~r2)
        [ Cet_x86.Arch.X64; Cet_x86.Arch.X86 ];
      true)

(* IDA- and Ghidra-like against the model of their two fresh traversals
   ([Oracle_baselines.ida_like], [ghidra_like]). *)
let check_tools_match_model tag bytes =
  let st = Substrate.of_bytes bytes in
  check int_list (tag ^ " IDA-like")
    (Oracle_baselines.ida_like st)
    (Cet_baselines.Ida_like.analyze_st st);
  check int_list (tag ^ " Ghidra-like")
    (Oracle_baselines.ghidra_like st)
    (Cet_baselines.Ghidra_like.analyze_st st)

let test_tools_match_model_corpus () =
  List.iter (fun (name, (bytes, _)) -> check_tools_match_model name bytes) (Lazy.force corpus)

let test_tools_match_model_grid () =
  let profile = Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.coreutils in
  List.iter
    (fun (opts : O.t) ->
      let bytes, _ = build ~profile ~index:0 ~opts in
      check_tools_match_model (O.to_string opts) bytes)
    O.all_grid

(* A traversal step allocates nothing: [explore] and [extend] stay within
   a fixed number of minor words plus the result list (3 words per
   function). *)
let test_traversal_allocation_budget () =
  let module C = Cet_baselines.Common in
  assert (not (Cet_telemetry.Span.enabled ()));
  List.iter
    (fun (name, (bytes, _truth)) ->
      let reader = Reader.read bytes in
      let st = Substrate.create reader in
      let sw = Substrate.sweep st in
      let entry = Reader.entry reader in
      let fdes = Substrate.fde_starts st in
      let measure what f =
        let before = Gc.minor_words () in
        let ex = Sys.opaque_identity (f ()) in
        let words = Gc.minor_words () -. before in
        let budget = (4 * List.length ex.C.e_functions) + 1024 in
        if words > float_of_int budget then
          Alcotest.failf "%s: %s allocates %.0f minor words (budget %d)" name what words budget
      in
      (* IDA-like's first roots, then Ghidra-like's FDE starts. *)
      let roots =
        entry :: (match C.entry_main_root sw ~entry with Some m -> [ m ] | None -> [])
      in
      measure "explore" (fun () -> C.explore sw ~roots);
      let ex = C.explore sw ~roots in
      measure "extend" (fun () -> C.extend sw ex ~roots:(roots @ fdes)))
    (Lazy.force corpus)

(* The kernels check their maps' sizes, and the stream its addresses,
   before the lookups read them unchecked. *)
let test_mismatches_rejected () =
  let module C = Cet_baselines.Common in
  let code = "\x55\x48\x89\xe5\x90\xc3" in
  let stream =
    Option.get
      (Cet_x86.Decoder.walk Cet_x86.Arch.X64 ~phase:"test.walk" ~anchors:None code ~pos:0
         ~len:(String.length code) ~vaddr:0x1000 ~stream:true ~harvest:None)
        .Cet_x86.Decoder.stream
  in
  List.iter
    (fun (base, code) ->
      Alcotest.check_raises
        (Printf.sprintf "of_stream base 0x%x, %d bytes" base (String.length code))
        (Invalid_argument "Linear.of_stream: an instruction address lies outside the region")
        (fun () ->
          ignore (Linear.of_stream Cet_x86.Arch.X64 ~base ~code stream ~resync_errors:0 : Linear.t)))
    [ (0x1001, code); (0x1000, String.sub code 0 5) ];
  let sw = Linear.of_stream Cet_x86.Arch.X64 ~base:0x1000 ~code stream ~resync_errors:0 in
  let short = { C.e_functions = []; e_visited = Bytes.make (Linear.length sw - 1) '\000' } in
  Alcotest.check_raises "extend"
    (Invalid_argument "Common.extend: the visited map does not match the stream") (fun () ->
      ignore (C.extend sw short ~roots:[ 0x1000 ] : C.explored));
  Alcotest.check_raises "prologue_scan"
    (Invalid_argument "Common.prologue_scan: the visited map is shorter than the stream")
    (fun () ->
      ignore
        (C.prologue_scan sw ~known:[] ~aggressive:true ~visited:short.C.e_visited ()
          : int list))

(* --- one decode walk per binary ------------------------------------------- *)

(* [src] with its comments and its string and character literals blanked:
   the code alone. *)
let code_only src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i = if i < n then Bytes.set b i ' ' in
  let rec code i depth =
    if i >= n then ()
    else if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then (
      blank i;
      blank (i + 1);
      code (i + 2) (depth + 1))
    else if depth > 0 && src.[i] = '*' && i + 1 < n && src.[i + 1] = ')' then (
      blank i;
      blank (i + 1);
      code (i + 2) (depth - 1))
    else if src.[i] = '"' then (
      blank i;
      string (i + 1) depth)
    else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then (
      blank (i + 1);
      code (i + 3) depth)
    else if src.[i] = '\'' && i + 1 < n && src.[i + 1] = '\\' then (
      let j = ref (i + 2) in
      while !j < n && src.[!j] <> '\'' do
        blank !j;
        incr j
      done;
      blank (i + 1);
      code (!j + 1) depth)
    else (
      if depth > 0 then blank i;
      code (i + 1) depth)
  and string i depth =
    if i >= n then ()
    else if src.[i] = '\\' then (
      blank i;
      blank (i + 1);
      string (i + 2) depth)
    else (
      blank i;
      if src.[i] = '"' then code (i + 1) depth else string (i + 1) depth)
  in
  code 0 0;
  Bytes.to_string b

(* The module paths of [code], in order: runs of identifier characters and
   dots. *)
let paths code =
  let ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true | _ -> false
  in
  let words = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if ident c then (if !start < 0 then start := i)
      else if !start >= 0 then (
        words := String.sub code !start (i - !start) :: !words;
        start := -1))
    (code ^ " ");
  List.rev !words

(* Does this source call [Decoder.walk]?  Besides the qualified names, it
   follows [module X = Decoder] aliases, and a bare [walk] under [open
   Decoder] counts. *)
let calls_walk src =
  let words = paths (code_only src) in
  let decoder p = p = "Decoder" || p = "Cet_x86.Decoder" in
  let rec aliases = function
    | "module" :: x :: p :: rest when decoder p -> x :: aliases rest
    | _ :: rest -> aliases rest
    | [] -> []
  in
  let names = "Decoder" :: "Cet_x86.Decoder" :: aliases words in
  let rec opens = function
    | ("open" | "include") :: p :: rest -> decoder p || opens rest
    | _ :: rest -> opens rest
    | [] -> false
  in
  List.exists (fun w -> List.exists (fun m -> w = m ^ ".walk") names) words
  || (opens words && List.mem "walk" words)

let rec ml_files dir =
  List.concat_map
    (fun name ->
      let path = Filename.concat dir name in
      if name.[0] = '.' then []
      else if Sys.is_directory path then ml_files path
      else if Filename.check_suffix name ".ml" then [ path ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* In lib/, Substrate is the one caller of [Decoder.walk]: every [.text] a
   tool analyses is decoded once, by its substrate's memoised walk.  The
   tests sweep bare blobs through test/sweep.ml. *)
let test_walk_has_one_caller () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  check Alcotest.bool "lint sees through a comment" false
    (calls_walk "(* Decoder.walk (* nested *) *) let s = \"Decoder.walk\" and c = '\"'");
  check Alcotest.bool "lint follows an alias" true
    (calls_walk "let f = let module D = Cet_x86.Decoder in D.walk");
  match List.find_opt Sys.file_exists [ "../lib"; "lib" ] with
  | None -> Alcotest.fail "lib/ not reachable from the test directory"
  | Some root ->
    let files = ml_files root in
    check Alcotest.bool "lib/ sources found" true (List.length files > 50);
    check Alcotest.(list string) "callers"
      [ Filename.concat root "disasm/substrate.ml" ]
      (List.filter (fun path -> calls_walk (read path)) files)

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
        Alcotest.test_case "of_bytes_diag = of_bytes on well-formed input" `Quick
          test_diag_substrate_matches;
        Alcotest.test_case "stream matches the reference sweeps" `Quick
          test_stream_matches_oracle;
        Alcotest.test_case "stream footprint" `Quick test_stream_footprint;
        Alcotest.test_case "Decoder.walk: Substrate is lib/'s one caller" `Quick
          test_walk_has_one_caller;
        Alcotest.test_case "kernels match their record-based oracles" `Quick
          test_kernels_match_oracles;
        QCheck_alcotest.to_alcotest test_kernels_match_oracles_random;
        Alcotest.test_case "tool outputs pinned" `Quick test_tool_outputs_pinned;
        Alcotest.test_case "anchors are instruction starts (corpus)" `Quick
          test_anchors_are_boundaries_corpus;
        Alcotest.test_case "anchors are instruction starts (48 configurations)" `Quick
          test_anchors_are_boundaries_grid;
        Alcotest.test_case "bucket lookup = binary search (corpus)" `Quick
          test_lookup_matches_binary_search;
        QCheck_alcotest.to_alcotest test_lookup_matches_binary_search_random;
        Alcotest.test_case "extend = explore (corpus)" `Quick test_extend_matches_explore;
        QCheck_alcotest.to_alcotest test_extend_matches_explore_random;
        Alcotest.test_case "IDA- and Ghidra-like = two-traversal model (corpus)" `Quick
          test_tools_match_model_corpus;
        Alcotest.test_case "IDA- and Ghidra-like = two-traversal model (48 configurations)"
          `Quick test_tools_match_model_grid;
        Alcotest.test_case "traversal allocation budget" `Quick
          test_traversal_allocation_budget;
        Alcotest.test_case "mismatched maps and regions are rejected" `Quick
          test_mismatches_rejected;
        Alcotest.test_case "scan matches sweep-derived (48 configurations)" `Quick
          test_scan_matches_grid;
        Alcotest.test_case "first sweep major-heap budget" `Quick
          test_first_sweep_major_budget;
        Alcotest.test_case "padding bit = exact NOP or INT3 (corpus)" `Quick
          test_padding_bit_corpus;
        Alcotest.test_case "padding bit = exact NOP or INT3 (48 configurations)" `Quick
          test_padding_bit_grid;
        Alcotest.test_case "padding bit: forms the exact parse leaves out" `Quick
          test_padding_bit_by_design;
      ] );
  ]
