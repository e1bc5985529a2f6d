(* Tests for cet_compiler: IR validation and the end-branch / splitting /
   tail-call / FDE emission rules the paper's study depends on. *)

module Arch = Cet_x86.Arch
module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Codegen = Cet_compiler.Codegen
module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate
module Dec = Cet_x86.Decoder

let check = Alcotest.check

let base_prog ?(lang = Ir.C) funcs =
  { Ir.prog_name = "t"; lang; funcs; extra_imports = [] }

let compile ?(opts = O.default) prog =
  let res = Link.link opts prog in
  let bytes = Cet_elf.Writer.write res.image in
  (res, Reader.read bytes)

let indexes reader = Substrate.indexes (Substrate.create reader)
let endbr_set reader = Array.to_list (indexes reader).Substrate.endbrs

let truth_addr res name = List.assoc name res.Link.truth

(* ------------------------------------------------------------------ *)
(* Options                                                            *)
(* ------------------------------------------------------------------ *)

let test_grid_size () =
  (* 24 configurations per compiler (2 arch x 2 pie x 6 levels), x2
     compilers. *)
  check Alcotest.int "48 grid points" 48 (List.length O.all_grid)

let test_option_flags () =
  check Alcotest.bool "tail at O2" true (O.tail_calls_enabled { O.default with opt = O.O2 });
  check Alcotest.bool "no tail at O0" false (O.tail_calls_enabled { O.default with opt = O.O0 });
  check Alcotest.bool "tail at Os" true (O.tail_calls_enabled { O.default with opt = O.Os });
  check Alcotest.bool "gcc splits at O3" true
    (O.cold_splitting_enabled { O.default with opt = O.O3 });
  check Alcotest.bool "clang never splits" false
    (O.cold_splitting_enabled { O.default with compiler = O.Clang; opt = O.O3 });
  check Alcotest.bool "gcc no split at O1" false
    (O.cold_splitting_enabled { O.default with opt = O.O1 });
  check Alcotest.bool "fde gcc C" true (O.emits_fdes O.default ~lang_cpp:false);
  check Alcotest.bool "fde clang x64 C" true
    (O.emits_fdes { O.default with compiler = O.Clang } ~lang_cpp:false);
  check Alcotest.bool "no fde clang x86 C" false
    (O.emits_fdes { O.default with compiler = O.Clang; arch = Arch.X86 } ~lang_cpp:false);
  check Alcotest.bool "fde clang x86 C++" true
    (O.emits_fdes { O.default with compiler = O.Clang; arch = Arch.X86 } ~lang_cpp:true)

(* ------------------------------------------------------------------ *)
(* IR validation                                                      *)
(* ------------------------------------------------------------------ *)

let test_validate_ok () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Call (Ir.Local "f") ];
        Ir.func ~address_taken:true "f" [ Ir.Compute 1 ];
      ]
  in
  check Alcotest.bool "valid" true (Ir.validate p = Ok ())

(* What [Ir.validate] rejects, [Link.link] rejects too: it validates once,
   in [Codegen.prepare], and never lowers an invalid program. *)
let expect_invalid p =
  (match Ir.validate p with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation error");
  match Link.link O.default p with
  | _ -> Alcotest.fail "Link.link accepted a program Ir.validate rejects"
  | exception Invalid_argument _ -> ()

let test_validate_no_main () =
  expect_invalid (base_prog [ Ir.func "f" [ Ir.Compute 1 ] ])

let test_validate_unknown_callee () =
  expect_invalid (base_prog [ Ir.func "main" [ Ir.Call (Ir.Local "ghost") ] ])

let test_validate_addr_of_non_taken () =
  expect_invalid
    (base_prog [ Ir.func "main" [ Ir.Call_via_pointer "f" ]; Ir.func "f" [] ])

let test_validate_try_in_c () =
  expect_invalid
    (base_prog [ Ir.func "main" [ Ir.Try_catch ([ Ir.Compute 1 ], [ [ Ir.Compute 1 ] ]) ] ])

let test_validate_duplicate () =
  expect_invalid (base_prog [ Ir.func "main" []; Ir.func "main" [] ])

let test_validate_part_jump () =
  expect_invalid
    (base_prog [ Ir.func "main" [ Ir.Jump_to_part "f" ]; Ir.func "f" [ Ir.Compute 1 ] ])

let test_collect_imports () =
  let p =
    base_prog ~lang:Ir.Cpp
      [
        Ir.func "main"
          [
            Ir.Call (Ir.Import "printf");
            Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [] ]);
            Ir.Indirect_return_call "setjmp";
          ];
      ]
  in
  let imports = Ir.collect_imports p in
  check Alcotest.bool "printf once" true
    (List.length (List.filter (( = ) "printf") imports) = 1);
  List.iter
    (fun i -> check Alcotest.bool i true (List.mem i imports))
    [ "printf"; "setjmp"; "__cxa_begin_catch"; "__cxa_end_catch"; "__gxx_personality_v0" ]

(* ------------------------------------------------------------------ *)
(* End-branch placement rules                                         *)
(* ------------------------------------------------------------------ *)

let endbr_prog =
  base_prog
    [
      Ir.func "main" [ Ir.Call (Ir.Local "stat"); Ir.Call (Ir.Local "intrin") ];
      Ir.func "exported" [ Ir.Compute 1 ];
      Ir.func ~linkage:Ir.Static "stat" [ Ir.Compute 1 ];
      Ir.func ~linkage:Ir.Static ~address_taken:true "taken" [ Ir.Compute 1 ];
      Ir.func ~no_endbr:true "intrin" [ Ir.Compute 1 ];
    ]

let test_endbr_rules () =
  let res, reader = compile endbr_prog in
  let endbrs = endbr_set reader in
  let has name = List.mem (truth_addr res name) endbrs in
  check Alcotest.bool "main has endbr" true (has "main");
  check Alcotest.bool "exported has endbr" true (has "exported");
  check Alcotest.bool "_start has endbr" true (has "_start");
  check Alcotest.bool "static lacks endbr" false (has "stat");
  check Alcotest.bool "address-taken static has endbr" true (has "taken");
  check Alcotest.bool "intrinsic lacks endbr" false (has "intrin")

let test_cf_protection_none () =
  let opts = { O.default with cf_protection = O.Cf_none } in
  let _, reader = compile ~opts endbr_prog in
  check Alcotest.int "no endbr at all" 0 (List.length (endbr_set reader));
  (* Legacy binaries carry no CET property note either. *)
  check Alcotest.bool "no cet note" false (Reader.cet_enabled reader)

let test_cf_protection_manual () =
  (* -mmanual-endbr (SSVI): only genuinely indirect-entered code keeps its
     end-branch. *)
  let opts = { O.default with cf_protection = O.Cf_manual } in
  let res, reader = compile ~opts endbr_prog in
  let endbrs = endbr_set reader in
  let has name = List.mem (truth_addr res name) endbrs in
  check Alcotest.bool "exported unmarked" false (has "exported");
  check Alcotest.bool "address-taken marked" true (has "taken");
  check Alcotest.bool "main marked" true (has "main");
  check Alcotest.bool "still a CET binary" true (Reader.cet_enabled reader);
  (* Indirect-return sites keep their end-branch: the program would crash
     otherwise. *)
  let p =
    base_prog [ Ir.func "main" [ Ir.Indirect_return_call "setjmp" ] ]
  in
  let _, reader = compile ~opts p in
  check Alcotest.bool "setjmp site still marked" true
    (List.length (endbr_set reader) >= 2)

let test_endbr32_on_x86 () =
  let opts = { O.default with arch = Arch.X86 } in
  let _, reader = compile ~opts endbr_prog in
  let sweep = Substrate.sweep (Substrate.create reader) in
  let has64 =
    List.exists (fun i -> Linear.tag sweep i = Dec.tag_endbr64) (List.init (Linear.length sweep) Fun.id)
  in
  check Alcotest.bool "no endbr64 in x86" false has64;
  check Alcotest.bool "has endbr32" true (endbr_set reader <> [])

let test_setjmp_endbr_after_call () =
  let p =
    base_prog
      [ Ir.func "main" [ Ir.Compute 2; Ir.Indirect_return_call "setjmp"; Ir.Compute 2 ] ]
  in
  let res, reader = compile p in
  let ix = indexes reader in
  (* Find the call to setjmp's PLT entry; the next instruction must be an
     end-branch (Fig. 2a). *)
  let plt = Core.Parse.plt_st (Substrate.create reader) in
  let ret_addr =
    let k = ref 0 in
    while List.assoc_opt ix.Substrate.call_tgts.(!k) plt.Core.Parse.entries <> Some "setjmp" do
      incr k
    done;
    ix.Substrate.call_rets.(!k)
  in
  check Alcotest.bool "endbr after setjmp call" true (List.mem ret_addr (endbr_set reader));
  (* And it is not a function entry. *)
  check Alcotest.bool "not an entry" false (List.mem_assoc ret_addr (List.map (fun (a, b) -> (b, a)) res.Link.truth))

let test_landing_pad_after_ret () =
  let p =
    base_prog ~lang:Ir.Cpp
      [
        Ir.func "main"
          [ Ir.Compute 2; Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]) ];
      ]
  in
  let res, reader = compile p in
  let lps = Array.to_list (Substrate.landing_pads (Substrate.create reader)) in
  check Alcotest.int "one landing pad" 1 (List.length lps);
  let lp = List.hd lps in
  (* The pad starts with an end-branch... *)
  check Alcotest.bool "endbr at pad" true (List.mem lp (endbr_set reader));
  (* ...and lives inside main's fragment, past its entry (Fig. 2b). *)
  let main_start, main_end =
    let _, s, e = List.find (fun (n, _, _) -> n = "main") res.Link.fragment_extents in
    (s, e)
  in
  check Alcotest.bool "pad inside main fragment" true (lp > main_start && lp < main_end)

let test_switch_notrack () =
  let p =
    base_prog
      [ Ir.func "main" [ Ir.Switch [ [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ] ] ] ]
  in
  List.iter
    (fun arch ->
      let opts = { O.default with arch } in
      let _, reader = compile ~opts p in
      let sweep = Substrate.sweep (Substrate.create reader) in
      let notrack =
        List.exists
          (fun (i : Dec.ins) ->
            match i.kind with Dec.Jmp_indirect { notrack = true; _ } -> true | _ -> false)
          (List.init (Linear.length sweep) (Linear.ins sweep))
      in
      check Alcotest.bool "notrack switch jump" true notrack;
      (* Case labels must NOT carry end-branches. *)
      let endbrs = List.length (endbr_set reader) in
      check Alcotest.bool "no endbr per case" true (endbrs <= 3))
    [ Arch.X64; Arch.X86 ]

(* ------------------------------------------------------------------ *)
(* Tail calls and splitting                                           *)
(* ------------------------------------------------------------------ *)

let tail_prog =
  base_prog
    [
      Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt"; Ir.Compute 1 ];
      Ir.func "tgt" [ Ir.Compute 2 ];
    ]

let jmp_targets reader = Array.to_list (indexes reader).Substrate.jmp_targets
let call_targets reader = Array.to_list (indexes reader).Substrate.call_targets

let test_tail_call_by_opt_level () =
  let res2, reader2 = compile ~opts:{ O.default with opt = O.O2 } tail_prog in
  check Alcotest.bool "O2 jmp to target" true
    (List.mem (truth_addr res2 "tgt") (jmp_targets reader2));
  let res0, reader0 = compile ~opts:{ O.default with opt = O.O0 } tail_prog in
  check Alcotest.bool "O0 no tail jmp" false
    (List.mem (truth_addr res0 "tgt") (jmp_targets reader0));
  (* At O0 the degraded form is a direct call. *)
  check Alcotest.bool "O0 calls target" true
    (List.mem (truth_addr res0 "tgt") (call_targets reader0))

let split_prog =
  base_prog
    [
      Ir.func "main" [ Ir.Call (Ir.Local "f"); Ir.Call (Ir.Local "g") ];
      Ir.func ~fate:(Ir.Split_cold [ Ir.Compute 4 ]) "f" [ Ir.Compute 2 ];
      Ir.func ~fate:(Ir.Split_part { shared_jump = false; part_body = [ Ir.Compute 4 ] }) "g"
        [ Ir.Compute 2 ];
    ]

let frag_names res = List.map (fun (n, _, _) -> n) res.Link.fragment_extents

let test_split_gcc_o2 () =
  let res, reader = compile ~opts:{ O.default with opt = O.O2 } split_prog in
  check Alcotest.bool "cold fragment" true (List.mem "f.cold" (frag_names res));
  check Alcotest.bool "part fragment" true (List.mem "g.part.0" (frag_names res));
  (* Fragments carry symbols but are not ground truth. *)
  check Alcotest.bool "cold not in truth" false (List.mem_assoc "f.cold" res.Link.truth);
  let syms = Cet_eval.Ground_truth.from_symbols reader in
  check Alcotest.bool "cold symbol filtered" false (List.mem_assoc "f.cold" syms);
  let all_syms = Reader.symbols reader in
  check Alcotest.bool "cold symbol present in symtab" true
    (List.exists (fun (s : Cet_elf.Symbol.t) -> s.name = "f.cold") all_syms);
  (* The part is reached by a direct call. *)
  let part_addr =
    let _, s, _ = List.find (fun (n, _, _) -> n = "g.part.0") res.Link.fragment_extents in
    s
  in
  check Alcotest.bool "part direct-called" true (List.mem part_addr (call_targets reader))

let test_no_split_clang_or_low_opt () =
  let res, _ = compile ~opts:{ O.default with compiler = O.Clang; opt = O.O3 } split_prog in
  check Alcotest.bool "clang: no cold" false (List.mem "f.cold" (frag_names res));
  let res, _ = compile ~opts:{ O.default with opt = O.O1 } split_prog in
  check Alcotest.bool "O1: no part" false (List.mem "g.part.0" (frag_names res))

(* ------------------------------------------------------------------ *)
(* FDE emission and PLT                                               *)
(* ------------------------------------------------------------------ *)

let test_fde_rules () =
  let count_fdes reader =
    match Reader.find_section reader ".eh_frame" with
    | None -> 0
    | Some s -> List.length (Cet_eh.Eh_frame.decode ~vaddr:s.vaddr s.data)
  in
  (* GCC: every fragment gets an FDE, including splits. *)
  let res, reader = compile ~opts:{ O.default with opt = O.O2 } split_prog in
  check Alcotest.int "gcc fdes = fragments" (List.length res.Link.fragment_extents)
    (count_fdes reader);
  (* Clang x86 C: no FDEs. *)
  let _, reader =
    compile ~opts:{ O.default with compiler = O.Clang; arch = Arch.X86 } split_prog
  in
  check Alcotest.int "clang x86 C: none" 0 (count_fdes reader);
  (* Clang x64 C: full coverage. *)
  let res, reader = compile ~opts:{ O.default with compiler = O.Clang } split_prog in
  check Alcotest.int "clang x64 C: all" (List.length res.Link.fragment_extents)
    (count_fdes reader)

let test_plt_resolution () =
  let p =
    base_prog
      [ Ir.func "main" [ Ir.Call (Ir.Import "printf"); Ir.Call (Ir.Import "malloc") ] ]
  in
  let res, reader = compile p in
  let plt = Core.Parse.plt_st (Substrate.create reader) in
  List.iter
    (fun name ->
      let addr = List.assoc name res.Link.plt_entries in
      check Alcotest.(option string) ("plt " ^ name) (Some name)
        (List.assoc_opt addr plt.Core.Parse.entries))
    [ "printf"; "malloc"; "__libc_start_main" ];
  let printf = List.assoc "printf" res.Link.plt_entries in
  check Alcotest.bool "in_plt" true (printf >= plt.plt_lo && printf < plt.plt_hi)

let test_entry_is_start () =
  let res, reader = compile endbr_prog in
  check Alcotest.int "entry" (truth_addr res "_start") (Reader.entry reader)

let test_x86_pie_thunk () =
  let p =
    base_prog
      [ Ir.func "main" [ Ir.Store_fn_pointer "cb" ]; Ir.func ~address_taken:true "cb" [] ]
  in
  let opts = { O.default with arch = Arch.X86; pie = true } in
  let res, reader = compile ~opts p in
  (* The ax thunk exists in the ground truth but has no symbol (§V-A1). *)
  check Alcotest.bool "thunk in truth" true
    (List.mem_assoc "__x86.get_pc_thunk.ax" res.Link.truth);
  let syms = Reader.symbols reader in
  check Alcotest.bool "thunk symbol omitted" false
    (List.exists (fun (s : Cet_elf.Symbol.t) -> s.name = "__x86.get_pc_thunk.ax") syms);
  (* The bx thunk, used by regular functions, does carry a symbol. *)
  check Alcotest.bool "bx thunk symbol" true
    (List.exists (fun (s : Cet_elf.Symbol.t) -> s.name = "__x86.get_pc_thunk.bx") syms)

let test_dwarf_ground_truth () =
  (* The paper's GT pipeline: DWARF subprograms, fragments filtered, equals
     the symbol-based view and the compiler's own list. *)
  let res, reader = compile ~opts:{ O.default with opt = O.O2 } split_prog in
  let dw = Dwarf_reader.ground_truth reader in
  let syms = Cet_eval.Ground_truth.from_symbols reader in
  check Alcotest.(list int) "dwarf = symbols"
    (Cet_eval.Ground_truth.addresses syms)
    (Cet_eval.Ground_truth.addresses dw);
  check Alcotest.(list int) "dwarf = compiler truth"
    (Cet_eval.Ground_truth.addresses res.Link.truth)
    (Cet_eval.Ground_truth.addresses dw);
  (* .cold carries a DIE but is filtered. *)
  check Alcotest.bool "cold filtered" false (List.mem_assoc "f.cold" dw);
  (* Stripping removes the debug sections entirely. *)
  let stripped = Reader.read (Cet_elf.Writer.write ~strip:true res.Link.image) in
  check Alcotest.bool "debug_info stripped" true
    (Reader.find_section stripped ".debug_info" = None);
  check Alcotest.(list (pair string int)) "no dwarf GT after strip" []
    (Dwarf_reader.ground_truth stripped)

(* A 40-function all-C++ program (landing pads, cold splits, tail calls),
   for the checks that run under every grid configuration. *)
let cpp_prog =
  lazy
    (let module P = Cet_corpus.Profile in
     let profile =
       { (P.scaled 0.05 P.spec) with P.funcs_lo = 40; funcs_hi = 40; lang_cpp_fraction = 1.0 }
     in
     Cet_corpus.Generator.program ~seed:2022 ~profile ~index:0)

(* The paper's ground truth on every configuration: the DWARF
   subprograms, fragments filtered, are the symbol-based entries, and
   every one of them is in the compiler's own list. *)
let test_dwarf_ground_truth_grid () =
  let module GT = Cet_eval.Ground_truth in
  List.iter
    (fun opts ->
      let tag = O.to_string opts in
      let res, reader = compile ~opts (Lazy.force cpp_prog) in
      let dw = GT.addresses (Dwarf_reader.ground_truth reader) in
      check Alcotest.(list int) (tag ^ ": dwarf = symbols")
        (GT.addresses (GT.from_symbols reader)) dw;
      check Alcotest.(list int) (tag ^ ": dwarf within compiler truth") []
        (List.filter (fun a -> not (List.mem a (GT.addresses res.Link.truth))) dw))
    O.all_grid

(* The test-side strip(1) and the corpus build's stripping writer give the
   same bytes for every configuration's binary, debug sections, exception
   tables and dynamic symbols included. *)
let test_strip_grid () =
  List.iter
    (fun opts ->
      let res = Link.link opts (Lazy.force cpp_prog) in
      check Alcotest.bool (O.to_string opts) true
        (Strip.strip (Cet_elf.Writer.write res.Link.image)
        = Cet_elf.Writer.write ~strip:true res.Link.image))
    O.all_grid

let test_truth_matches_symbols_plus_corrections () =
  (* For configurations without the omitted thunk, symtab-derived ground
     truth equals the compiler's own entry list. *)
  let res, reader = compile ~opts:{ O.default with opt = O.O2 } split_prog in
  let from_syms = Cet_eval.Ground_truth.addresses (Cet_eval.Ground_truth.from_symbols reader) in
  let from_compiler = Cet_eval.Ground_truth.addresses res.Link.truth in
  check Alcotest.(list int) "truth = filtered symbols" from_compiler from_syms

let test_text_sweep_clean () =
  (* Linear sweep over generated .text must never resynchronise: compilers
     do not embed data in .text (§IV-B). *)
  List.iter
    (fun opts ->
      let _, reader = compile ~opts split_prog in
      let sweep = Substrate.sweep (Substrate.create reader) in
      check Alcotest.int (O.to_string opts ^ " resyncs") 0 sweep.resync_errors)
    O.all_grid

(* The compiler's bytes, pinned: three 40-function programs (coreutils,
   binutils, and an all-C++ spec program) linked under every grid
   configuration and, for each, its -fcf-protection=none, -mmanual-endbr
   and in-text-jump-table variants — 576 links.  Each link feeds its
   stripped bytes, its unstripped bytes and its truth lines into one MD5,
   so a change to lowering, layout, the ELF writer or the truth that moves
   one byte of any of them fails here. *)
let test_compiler_bytes_pinned () =
  let module P = Cet_corpus.Profile in
  let program profile =
    let profile = { (P.scaled 0.05 profile) with P.funcs_lo = 40; funcs_hi = 40 } in
    Cet_corpus.Generator.program ~seed:2022 ~profile ~index:0
  in
  let programs =
    List.map program [ P.coreutils; P.binutils; { P.spec with P.lang_cpp_fraction = 1.0 } ]
  in
  let buf = Buffer.create (1 lsl 24) in
  List.iter
    (fun prog ->
      List.iter
        (fun (opts : O.t) ->
          List.iter
            (fun opts ->
              let res = Link.link opts prog in
              Buffer.add_string buf (Cet_elf.Writer.write ~strip:true res.Link.image);
              Buffer.add_string buf (Cet_elf.Writer.write ~strip:false res.Link.image);
              List.iter
                (fun (name, addr) -> Printf.bprintf buf "%s %x\n" name addr)
                res.Link.truth)
            [
              opts;
              { opts with cf_protection = O.Cf_none };
              { opts with cf_protection = O.Cf_manual };
              { opts with jump_tables_in_text = true };
            ])
        O.all_grid)
    programs;
  check Alcotest.string "md5 of 576 links" "2f2121c75c0ab554cd3dc60dde4f1ab5"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The filler table holds, for every form and immediate, the bytes the
   encoder gives that instruction: 4,375 entries per architecture. *)
let test_filler_table () =
  List.iter
    (fun arch ->
      let entries = Codegen.filler_entries arch in
      check Alcotest.int (Arch.to_string arch ^ " entries") 4375 (List.length entries);
      List.iter
        (fun (insn, bytes) ->
          let want = Cet_x86.Encoder.encode arch insn in
          if bytes <> want then
            Alcotest.failf "%s: %a is %S in the table, %S encoded" (Arch.to_string arch)
              (Cet_x86.Insn.pp ~arch) insn bytes want)
        entries)
    [ Arch.X64; Arch.X86 ]

(* A prepared program holds no mutable state: two domains linking it at
   once, under two configurations, get the bytes of separate links. *)
let test_prepared_shared_across_domains () =
  let profile =
    { (Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.spec) with
      Cet_corpus.Profile.funcs_lo = 60; funcs_hi = 60; lang_cpp_fraction = 1.0 }
  in
  let prog = Cet_corpus.Generator.program ~seed:2022 ~profile ~index:0 in
  let gcc = { O.default with opt = O.O2 } in
  let clang = { O.default with compiler = O.Clang; arch = Arch.X86; pie = true } in
  let bytes link opts = Cet_elf.Writer.write (link opts).Link.image in
  let want_gcc = bytes (fun o -> Link.link o prog) gcc in
  let want_clang = bytes (fun o -> Link.link o prog) clang in
  let pp = Codegen.prepare prog in
  let links opts = List.init 8 (fun _ -> bytes (fun o -> Link.link_prepared o pp) opts) in
  let other = Domain.spawn (fun () -> links clang) in
  let here = links gcc in
  let there = Domain.join other in
  List.iter (fun b -> check Alcotest.bool "gcc link" true (b = want_gcc)) here;
  List.iter (fun b -> check Alcotest.bool "clang link" true (b = want_clang)) there

let suite =
  [
    ( "compiler.options",
      [
        Alcotest.test_case "grid size" `Quick test_grid_size;
        Alcotest.test_case "per-level flags" `Quick test_option_flags;
      ] );
    ( "compiler.ir",
      [
        Alcotest.test_case "validate ok" `Quick test_validate_ok;
        Alcotest.test_case "missing main" `Quick test_validate_no_main;
        Alcotest.test_case "unknown callee" `Quick test_validate_unknown_callee;
        Alcotest.test_case "address of non-taken" `Quick test_validate_addr_of_non_taken;
        Alcotest.test_case "try/catch in C" `Quick test_validate_try_in_c;
        Alcotest.test_case "duplicate names" `Quick test_validate_duplicate;
        Alcotest.test_case "jump to missing part" `Quick test_validate_part_jump;
        Alcotest.test_case "collect_imports" `Quick test_collect_imports;
      ] );
    ( "compiler.endbr",
      [
        Alcotest.test_case "entry rules" `Quick test_endbr_rules;
        Alcotest.test_case "-fcf-protection=none" `Quick test_cf_protection_none;
        Alcotest.test_case "-mmanual-endbr" `Quick test_cf_protection_manual;
        Alcotest.test_case "endbr32 on x86" `Quick test_endbr32_on_x86;
        Alcotest.test_case "endbr after setjmp call" `Quick test_setjmp_endbr_after_call;
        Alcotest.test_case "landing pad placement" `Quick test_landing_pad_after_ret;
        Alcotest.test_case "notrack switch" `Quick test_switch_notrack;
      ] );
    ( "compiler.shape",
      [
        Alcotest.test_case "tail call by opt level" `Quick test_tail_call_by_opt_level;
        Alcotest.test_case "gcc O2 splitting" `Quick test_split_gcc_o2;
        Alcotest.test_case "no splitting (clang / low opt)" `Quick test_no_split_clang_or_low_opt;
        Alcotest.test_case "fde emission rules" `Quick test_fde_rules;
        Alcotest.test_case "plt name resolution" `Quick test_plt_resolution;
        Alcotest.test_case "entry point" `Quick test_entry_is_start;
        Alcotest.test_case "x86 pie thunk corner case" `Quick test_x86_pie_thunk;
        Alcotest.test_case "dwarf ground truth" `Quick test_dwarf_ground_truth;
        Alcotest.test_case "dwarf ground truth (48 configurations)" `Quick
          test_dwarf_ground_truth_grid;
        Alcotest.test_case "strip(1) = write ~strip (48 configurations)" `Quick test_strip_grid;
        Alcotest.test_case "truth = corrected symbols" `Quick test_truth_matches_symbols_plus_corrections;
        Alcotest.test_case "sweep never resyncs (24 configs)" `Quick test_text_sweep_clean;
        Alcotest.test_case "bytes pinned (576 links)" `Quick test_compiler_bytes_pinned;
        Alcotest.test_case "filler table = encoder" `Quick test_filler_table;
        Alcotest.test_case "prepared program shared by two domains" `Quick
          test_prepared_shared_across_domains;
      ] );
  ]
