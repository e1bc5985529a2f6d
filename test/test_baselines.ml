(* Tests for the baseline identifier models (FETCH-, Ghidra-, IDA-like). *)

module Arch = Cet_x86.Arch
module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate

let check = Alcotest.check

let base_prog ?(lang = Ir.C) funcs =
  { Ir.prog_name = "t"; lang; funcs; extra_imports = [] }

let compile ?(opts = O.default) prog =
  let res = Link.link opts prog in
  (res, Reader.read (Cet_elf.Writer.write ~strip:true res.image))

let truth_addrs (res : Link.result) = List.sort_uniq compare (List.map snd res.truth)

let prog =
  base_prog
    [
      Ir.func "main" [ Ir.Compute 2; Ir.Call (Ir.Local "a"); Ir.Call (Ir.Local "b") ];
      Ir.func "a" [ Ir.Compute 2; Ir.Call (Ir.Local "b") ];
      Ir.func ~linkage:Ir.Static "b" [ Ir.Compute 1 ];
      (* reachable only through a function pointer *)
      Ir.func ~address_taken:true "cb" [ Ir.Compute 2 ];
      Ir.func ~linkage:Ir.Static "store" [ Ir.Store_fn_pointer "cb" ];
      Ir.func "use_store" [ Ir.Call (Ir.Local "store") ];
    ]

(* main must call use_store so the pointer store is reachable *)
let prog =
  {
    prog with
    Ir.funcs =
      List.map
        (fun (f : Ir.func) ->
          if f.name = "main" then { f with body = f.body @ [ Ir.Call (Ir.Local "use_store") ] }
          else f)
        prog.Ir.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Shared passes                                                      *)
(* ------------------------------------------------------------------ *)

let test_fde_starts () =
  let res, reader = compile prog in
  let starts = Substrate.fde_starts (Substrate.create reader) in
  (* GCC: one FDE per fragment, so every truth entry has one. *)
  List.iter
    (fun a -> check Alcotest.bool "fde covers entry" true (List.mem a starts))
    (truth_addrs res)

let test_explore_reaches_called () =
  let res, reader = compile prog in
  let sweep = Linear.sweep_text reader in
  let entry = Reader.entry reader in
  let main = List.assoc "main" res.Link.truth in
  let ex = Cet_baselines.Common.explore sweep ~roots:[ entry; main ] in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " reached") true
        (List.mem (List.assoc n res.Link.truth) ex.Cet_baselines.Common.e_functions))
    [ "a"; "b"; "store"; "use_store" ];
  (* The pointer-only callee is not reachable by traversal. *)
  check Alcotest.bool "cb not reached" false
    (List.mem (List.assoc "cb" res.Link.truth) ex.Cet_baselines.Common.e_functions)

let test_entry_main_root () =
  List.iter
    (fun opts ->
      let res, reader = compile ~opts prog in
      let sweep = Linear.sweep_text reader in
      let root = Cet_baselines.Common.entry_main_root sweep ~entry:(Reader.entry reader) in
      check (Alcotest.option Alcotest.int)
        ("main root " ^ O.to_string opts)
        (Some (List.assoc "main" res.Link.truth))
        root)
    [ O.default; { O.default with arch = Arch.X86; pie = false } ]

let test_stack_height_finds_tail () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
        Ir.func ~linkage:Ir.Static "tgt" [ Ir.Compute 1 ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let sweep = Linear.sweep_text reader in
  let main = List.assoc "main" res.Link.truth in
  let tgt = List.assoc "tgt" res.Link.truth in
  let targets =
    Cet_baselines.Common.stack_height_tail_targets sweep ~extents:[ (main, tgt) ]
  in
  check Alcotest.bool "tail target found" true (List.mem tgt targets)

(* ------------------------------------------------------------------ *)
(* FETCH-like                                                         *)
(* ------------------------------------------------------------------ *)

let test_fetch_gcc_full_recall () =
  let res, reader = compile prog in
  let found = Cet_baselines.Fetch.analyze_st (Substrate.create reader) in
  List.iter
    (fun a -> check Alcotest.bool "found" true (List.mem a found))
    (truth_addrs res)

let test_fetch_clang_x86_c_collapse () =
  (* Clang emits no FDEs for x86 C code: FETCH finds nothing (§V-C). *)
  let opts = { O.default with compiler = O.Clang; arch = Arch.X86 } in
  let _, reader = compile ~opts prog in
  check Alcotest.(list int) "nothing" []
    (Cet_baselines.Fetch.analyze_st (Substrate.create reader))

let test_fetch_fragment_fp () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Call (Ir.Local "g") ];
        Ir.func ~fate:(Ir.Split_part { shared_jump = false; part_body = [ Ir.Compute 3 ] }) "g"
          [ Ir.Compute 1 ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let part_addr =
    let _, s, _ = List.find (fun (n, _, _) -> n = "g.part.0") res.Link.fragment_extents in
    s
  in
  let found = Cet_baselines.Fetch.analyze_st (Substrate.create reader) in
  (* GCC records FDEs for .part fragments, so FETCH reports them. *)
  check Alcotest.bool "part FP" true (List.mem part_addr found)

(* ------------------------------------------------------------------ *)
(* Ghidra-like                                                        *)
(* ------------------------------------------------------------------ *)

let test_ghidra_x64_full_recall () =
  let res, reader = compile prog in
  let found = Cet_baselines.Ghidra_like.analyze_st (Substrate.create reader) in
  List.iter
    (fun a -> check Alcotest.bool "found" true (List.mem a found))
    (truth_addrs res)

let test_ghidra_clang_x86_degraded () =
  let opts = { O.default with compiler = O.Clang; arch = Arch.X86; pie = false } in
  let res, reader = compile ~opts prog in
  let found = Cet_baselines.Ghidra_like.analyze_st (Substrate.create reader) in
  let truth = truth_addrs res in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  check Alcotest.bool "misses something" true (m.Cet_eval.Metrics.fn > 0)

(* ------------------------------------------------------------------ *)
(* IDA-like                                                           *)
(* ------------------------------------------------------------------ *)

let test_ida_reaches_call_graph () =
  let res, reader = compile prog in
  let found = Cet_baselines.Ida_like.analyze_st (Substrate.create reader) in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " found") true
        (List.mem (List.assoc n res.Link.truth) found))
    [ "main"; "a"; "b" ]

let test_ida_misses_pointer_only_x86_pie () =
  (* On x86 PIE, address immediates are ambiguous: IDA cannot find the
     pointer-only callee (96% of its FNs per §V-C). *)
  let opts = { O.default with arch = Arch.X86; pie = true; opt = O.O2 } in
  let res, reader = compile ~opts prog in
  let found = Cet_baselines.Ida_like.analyze_st (Substrate.create reader) in
  let cb = List.assoc "cb" res.Link.truth in
  check Alcotest.bool "cb missed" false (List.mem cb found)

let test_ida_lea_refs_x64 () =
  (* On x86-64, RIP-relative lea references are unambiguous and recovered. *)
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts prog in
  let found = Cet_baselines.Ida_like.analyze_st (Substrate.create reader) in
  let cb = List.assoc "cb" res.Link.truth in
  check Alcotest.bool "cb found via lea" true (List.mem cb found)

let test_tools_vs_funseeker () =
  (* The headline comparison: on CET binaries FunSeeker dominates every
     baseline's recall. *)
  let res, reader = compile ~opts:{ O.default with opt = O.O2 } prog in
  let truth = truth_addrs res in
  let recall found =
    Cet_eval.Metrics.recall (Cet_eval.Metrics.compare_sets ~truth ~found)
  in
  let st = Substrate.create reader in
  let fs = recall (Core.Funseeker.analyze_st st).Core.Funseeker.functions in
  check Alcotest.bool "fs >= ida" true (fs >= recall (Cet_baselines.Ida_like.analyze_st st));
  check Alcotest.bool "fs >= ghidra" true
    (fs >= recall (Cet_baselines.Ghidra_like.analyze_st st));
  check Alcotest.bool "fs >= fetch" true
    (fs >= recall (Cet_baselines.Fetch.analyze_st st))

(* ------------------------------------------------------------------ *)
(* ByteWeight-like and Nucleus-like (SSVII-B comparators)             *)
(* ------------------------------------------------------------------ *)

let corpus_build ?(opts = O.default) ~seed index =
  let profile = { Cet_corpus.Profile.coreutils with Cet_corpus.Profile.programs = 8 } in
  let ir = Cet_corpus.Generator.program ~seed ~profile ~index in
  let res = Link.link opts ir in
  ( Reader.read (Cet_elf.Writer.write ~strip:true res.image),
    List.sort_uniq compare (List.map snd res.truth) )

let test_byteweight_learns () =
  let train = List.init 4 (fun i -> corpus_build ~seed:31 i) in
  let model = Cet_baselines.Byteweight.train train in
  let reader, truth = corpus_build ~seed:31 5 in
  let found = Cet_baselines.Byteweight.classify_st model (Substrate.create reader) in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  if Cet_eval.Metrics.recall m < 70.0 then
    Alcotest.failf "recall %.1f too low for in-distribution" (Cet_eval.Metrics.recall m);
  if Cet_eval.Metrics.precision m < 60.0 then
    Alcotest.failf "precision %.1f too low" (Cet_eval.Metrics.precision m)

let test_byteweight_score_monotone () =
  (* An untrained model is uninformative. *)
  let model = Cet_baselines.Byteweight.train [] in
  check (Alcotest.float 1e-9) "prior" 0.5
    (Cet_baselines.Byteweight.score model "\xf3\x0f\x1e\xfa" ~off:0)

let test_byteweight_empty_model_finds_nothing () =
  let model = Cet_baselines.Byteweight.train [] in
  let reader, _ = corpus_build ~seed:31 0 in
  check Alcotest.(list int) "nothing above prior" []
    (Cet_baselines.Byteweight.classify_st model (Substrate.create reader))

let test_nucleus_on_c () =
  let reader, truth = corpus_build ~seed:31 2 in
  let found = Cet_baselines.Nucleus_like.analyze_st (Substrate.create reader) in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  if Cet_eval.Metrics.recall m < 95.0 then
    Alcotest.failf "nucleus recall %.1f too low on C" (Cet_eval.Metrics.recall m);
  if Cet_eval.Metrics.precision m < 90.0 then
    Alcotest.failf "nucleus precision %.1f too low on C" (Cet_eval.Metrics.precision m)

let test_nucleus_landing_pad_fps () =
  (* On C++ binaries, landing pads have no intra-procedural predecessor:
     Nucleus reports them as functions (a pre-CET blind spot FunSeeker's
     FILTERENDBR closes). *)
  let p =
    base_prog ~lang:Ir.Cpp
      [
        Ir.func "main"
          [ Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]) ];
      ]
  in
  let res, reader = compile p in
  let truth = truth_addrs res in
  let found = Cet_baselines.Nucleus_like.analyze_st (Substrate.create reader) in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found in
  check Alcotest.bool "landing pad FP" true (m.Cet_eval.Metrics.fp > 0);
  let lps = Substrate.landing_pads (Substrate.create reader) in
  Array.iter
    (fun lp -> check Alcotest.bool "pad reported" true (List.mem lp found))
    lps

let test_nucleus_no_tail_merge () =
  (* A tail call target that is also direct-called elsewhere must not be
     swallowed into the caller's component. *)
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
        Ir.func "other" [ Ir.Call (Ir.Local "tgt") ];
        Ir.func ~linkage:Ir.Static "tgt" [ Ir.Compute 2 ];
        Ir.func "keep" [ Ir.Call (Ir.Local "other") ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let found = Cet_baselines.Nucleus_like.analyze_st (Substrate.create reader) in
  check Alcotest.bool "tail target found" true
    (List.mem (List.assoc "tgt" res.Link.truth) found)

(* A NOBITS .text declares a size but holds no bytes, so the sweep spans
   none of it.  Ghidra-like still reports the entry and every FDE start in
   the declared range: roots the traversal cannot reach, which only the
   union of roots and traversal keeps.  IDA-like, whose roots all come
   from the sweep, reports nothing. *)
let test_nobits_text () =
  let res, _ = compile prog in
  let image = res.Link.image in
  let nobits (s : Cet_elf.Image.section) =
    if s.name = ".text" then { s with sh_type = Cet_elf.Consts.sht_nobits } else s
  in
  let bytes =
    Cet_elf.Writer.write ~strip:true
      { image with Cet_elf.Image.sections = List.map nobits image.sections }
  in
  let reader = Reader.read bytes in
  let text = Option.get (Reader.find_section reader ".text") in
  check Alcotest.bool "no bytes, a declared size" true (text.data = "" && text.size > 0);
  let st = Substrate.create reader in
  (* GCC gives every fragment, [_start] included, an FDE. *)
  let starts = List.sort_uniq compare (List.map (fun (_, s, _) -> s) res.fragment_extents) in
  check Alcotest.(list int) "ghidra: entry and FDE starts" starts
    (Cet_baselines.Ghidra_like.analyze_st st);
  check Alcotest.(list int) "ida: nothing" [] (Cet_baselines.Ida_like.analyze_st st)

let suite =
  [
    ( "baselines.common",
      [
        Alcotest.test_case "fde starts" `Quick test_fde_starts;
        Alcotest.test_case "explore reaches call graph" `Quick test_explore_reaches_called;
        Alcotest.test_case "entry main root" `Quick test_entry_main_root;
        Alcotest.test_case "stack height tail targets" `Quick test_stack_height_finds_tail;
      ] );
    ( "baselines.fetch",
      [
        Alcotest.test_case "gcc full recall" `Quick test_fetch_gcc_full_recall;
        Alcotest.test_case "clang x86 C collapse" `Quick test_fetch_clang_x86_c_collapse;
        Alcotest.test_case "fragment FPs" `Quick test_fetch_fragment_fp;
      ] );
    ( "baselines.ghidra",
      [
        Alcotest.test_case "x64 full recall" `Quick test_ghidra_x64_full_recall;
        Alcotest.test_case "clang x86 degraded" `Quick test_ghidra_clang_x86_degraded;
      ] );
    ( "baselines.related_work",
      [
        Alcotest.test_case "byteweight learns" `Quick test_byteweight_learns;
        Alcotest.test_case "byteweight prior" `Quick test_byteweight_score_monotone;
        Alcotest.test_case "byteweight empty model" `Quick test_byteweight_empty_model_finds_nothing;
        Alcotest.test_case "nucleus on C" `Quick test_nucleus_on_c;
        Alcotest.test_case "nucleus landing-pad FPs" `Quick test_nucleus_landing_pad_fps;
        Alcotest.test_case "nucleus tail-call targets" `Quick test_nucleus_no_tail_merge;
      ] );
    ( "baselines.ida",
      [
        Alcotest.test_case "reaches call graph" `Quick test_ida_reaches_call_graph;
        Alcotest.test_case "misses pointer-only (x86 pie)" `Quick test_ida_misses_pointer_only_x86_pie;
        Alcotest.test_case "lea references (x64)" `Quick test_ida_lea_refs_x64;
        Alcotest.test_case "funseeker dominates" `Quick test_tools_vs_funseeker;
        Alcotest.test_case "NOBITS .text (and Ghidra-like)" `Quick test_nobits_text;
      ] );
  ]
