(* Robustness regressions: the typed-diagnostics path, overflow-safe
   parsing, the fault-isolated harness, and crash classes surfaced by the
   cetfuzz mutation engine.  Each numbered crash-class test failed (an
   uncaught exception) before the corresponding fix. *)

module Arch = Cet_x86.Arch
module Image = Cet_elf.Image
module Writer = Cet_elf.Writer
module Reader = Cet_elf.Reader
module Substrate = Cet_disasm.Substrate
module Diag = Cet_util.Diag
module Deadline = Cet_util.Deadline
module Harness = Cet_eval.Harness
module Manifest = Cet_obs.Manifest

let check = Alcotest.check

let has_code code diags = List.exists (fun (d : Diag.t) -> d.Diag.code = code) diags

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- Leb128 overflow (satellite fix) ---------------------------------- *)

let test_leb128_overlong () =
  (* Pre-fix: ten continuation bytes shifted past the 63-bit word, so the
     accumulated value wrapped silently (and far longer inputs kept
     looping); decoding now rejects any encoding that cannot fit. *)
  let overlong = String.make 10 '\xff' in
  let raises f = try ignore (f ()) ; false with Invalid_argument _ -> true in
  check Alcotest.bool "unsigned overlong rejected" true
    (raises (fun () -> Cet_util.Leb128.read_u overlong 0));
  check Alcotest.bool "signed overlong rejected" true
    (raises (fun () -> Cet_util.Leb128.read_s overlong 0));
  (* Boundary: the widest legal encodings still decode. *)
  let b = Buffer.create 10 in
  Cet_util.Leb128.write_u b max_int;
  check Alcotest.int "max_int roundtrips" max_int
    (fst (Cet_util.Leb128.read_u (Buffer.contents b) 0));
  let b = Buffer.create 10 in
  Cet_util.Leb128.write_s b min_int;
  check Alcotest.int "min_int roundtrips" min_int
    (fst (Cet_util.Leb128.read_s (Buffer.contents b) 0))

(* ---- ELF header crafting helpers -------------------------------------- *)

let sample_image ?(text = String.make 64 '\x90') () =
  {
    Image.arch = Arch.X64;
    machine = None;
    pie = true;
    cet_note = true;
    entry = 0x1010;
    sections =
      [
        Image.section ~name:".text"
          ~flags:(Cet_elf.Consts.shf_alloc lor Cet_elf.Consts.shf_execinstr)
          ~addralign:16 ~vaddr:0x1000 text;
        Image.section ~name:".rodata" ~vaddr:0x2000 "tables";
      ];
    symbols =
      [
        { Cet_elf.Symbol.name = "main"; value = 0x1010; size = 16; kind = Func; bind = Global;
          section = Some ".text" };
      ];
    dynsyms = [];
    plt_relocs = [];
  }

let u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
let u32 s off = u16 s off lor (u16 s (off + 2) lsl 16)
let u64 s off = u32 s off lor (u32 s (off + 4) lsl 32)

let patch_u64 bytes ~off v =
  let b = Bytes.of_string bytes in
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done;
  Bytes.to_string b

(* 64-bit ELF header/shdr field offsets (the images here are ELFCLASS64). *)
let shoff bytes = u64 bytes 0x28
let shentsize bytes = u16 bytes 0x3a
let shnum bytes = u16 bytes 0x3c

(* ---- Reader bounds overflow (satellite fix) --------------------------- *)

let test_reader_offset_overflow () =
  (* sh_offset = 2^62 - 1: pre-fix the [off + size > len] bounds check
     wrapped negative and accepted the section, and the payload extraction
     blew up with an uncaught Invalid_argument.  The subtraction-form check
     must reject it as Malformed (strict) / clamp it (lenient). *)
  let good = Writer.write (sample_image ()) in
  (* Entry 1 is the first real section; sh_offset lives at +0x18. *)
  let entry1 = shoff good + shentsize good in
  let evil = patch_u64 good ~off:(entry1 + 0x18) (0x3FFFFFFFFFFFFFFF) in
  check Alcotest.bool "strict read rejects as Malformed" true
    (try ignore (Reader.read evil) ; false with Reader.Malformed _ -> true);
  match Reader.read_diag evil with
  | Error d -> Alcotest.failf "lenient read refused a clampable image: %s" (Diag.to_string d)
  | Ok (_, diags) -> check Alcotest.bool "section-clamp diag" true (has_code "section-clamp" diags)

(* ---- Crash class: truncated section-header table ---------------------- *)

let test_truncated_shdr_salvage () =
  let good = Writer.write (sample_image ()) in
  check Alcotest.bool "shdr table at end of file" true
    (shoff good + (shentsize good * shnum good) = String.length good);
  (* Keep the null entry, one complete entry, and half of the next. *)
  let cut = String.sub good 0 (shoff good + (2 * shentsize good) + (shentsize good / 2)) in
  check Alcotest.bool "strict read rejects truncation" true
    (try ignore (Reader.read cut) ; false with Reader.Malformed _ -> true);
  match Reader.read_diag cut with
  | Error d -> Alcotest.failf "no salvage: %s" (Diag.to_string d)
  | Ok (t, diags) ->
    check Alcotest.bool "shdr-truncated diag" true (has_code "shdr-truncated" diags);
    check Alcotest.bool "salvaged a prefix" true (List.length (Reader.sections t) >= 1)

(* ---- Crash class: bad LSDA call-site encoding ------------------------- *)

let cpp_binary () =
  let profile =
    {
      (Cet_corpus.Profile.scaled 0.02 Cet_corpus.Profile.spec) with
      Cet_corpus.Profile.lang_cpp_fraction = 1.0;
    }
  in
  let ir = Cet_corpus.Generator.program ~seed:31 ~profile ~index:0 in
  let res = Cet_compiler.Link.link Cet_compiler.Options.default ir in
  Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image

(* Locate a section's payload in the file by content search (the writer
   embeds it verbatim) and overwrite it. *)
let overwrite_section bytes name ~fill =
  let t = Reader.read bytes in
  let s = Option.get (Reader.find_section t name) in
  let n = String.length s.Reader.data in
  check Alcotest.bool (name ^ " non-empty") true (n > 0);
  let rec find i =
    if i + n > String.length bytes then Alcotest.failf "%s payload not found" name
    else if String.sub bytes i n = s.Reader.data then i
    else find (i + 1)
  in
  let pos = find 0 in
  let b = Bytes.of_string bytes in
  Bytes.fill b pos n fill;
  Bytes.to_string b

(* FunSeeker over a robust substrate: the result and everything the
   substrate reported on the way. *)
let robust_analysis bytes =
  match Substrate.of_bytes_diag bytes with
  | Error d -> Alcotest.failf "whole analysis refused: %s" (Diag.to_string d)
  | Ok st ->
    let r = Core.Funseeker.analyze_st st in
    (r, Substrate.diags st)

let test_bad_lsda_encoding_degrades () =
  (* 0xFF-filled .gcc_except_table: LPStart/TType decode as "omitted" but
     the call-site encoding byte is invalid, the exact shape of the
     fuzzer's LSDA crash class.  Pre-fix, FILTERENDBR died on an uncaught
     Invalid_argument; the robust path must degrade with diagnostics. *)
  let evil = overwrite_section (cpp_binary ()) ".gcc_except_table" ~fill:'\xff' in
  let r, diags = robust_analysis evil in
  check Alcotest.bool "functions still identified" true (r.Core.Funseeker.functions <> []);
  check Alcotest.bool "lsda degradation reported" true
    (has_code "lsda-skipped" diags || has_code "eh-frame" diags)

let test_corrupt_eh_frame_salvage () =
  (* Same contract for .eh_frame itself: the walk salvages the prefix. *)
  let evil = overwrite_section (cpp_binary ()) ".eh_frame" ~fill:'\xee' in
  let r, diags = robust_analysis evil in
  check Alcotest.bool "functions still identified" true (r.Core.Funseeker.functions <> []);
  check Alcotest.bool "eh-frame walk reported" true (has_code "eh-frame" diags)

(* ---- Crash class: truncated EH metadata on the production paths ------- *)

(* Shrink a section in place by patching its sh_size in the section-header
   table: the payload prefix stays readable, so decoders that begin a
   record in bounds run off the new end mid-record — the cetfuzz
   truncation class, aimed here at the *production* (non-diag) substrate
   paths that used to let those exceptions escape. *)
let shrink_section bytes name ~keep =
  let t = Reader.read bytes in
  let s = Option.get (Reader.find_section t name) in
  let n = String.length s.Reader.data in
  check Alcotest.bool (name ^ " big enough to cut") true (keep < n);
  let base = shoff bytes in
  let rec go i =
    if i >= shnum bytes then Alcotest.failf "shdr for %s not found" name
    else
      let off = base + (i * shentsize bytes) in
      if u64 bytes (off + 0x18) = s.Reader.file_off && u64 bytes (off + 0x20) = n
      then patch_u64 bytes ~off:(off + 0x20) keep
      else go (i + 1)
  in
  go 0

let test_truncated_lsda_landing_pads () =
  (* [.gcc_except_table] cut in half: the LSDA records straddling the cut
     have in-bounds headers but truncated bodies.  Pre-fix,
     [Substrate.landing_pads] called the raising [Lsda.decode] and the
     exception escaped the production path; now corrupt records are
     skipped and every healthy one still contributes its pads. *)
  let good = cpp_binary () in
  let t = Reader.read good in
  let get = Option.get (Reader.find_section t ".gcc_except_table") in
  let evil = shrink_section good ".gcc_except_table"
      ~keep:(String.length get.Reader.data / 2)
  in
  let st = Cet_disasm.Substrate.of_bytes evil in
  let pads = Cet_disasm.Substrate.landing_pads st in
  let intact = Cet_disasm.Substrate.landing_pads (Cet_disasm.Substrate.of_bytes good) in
  check Alcotest.bool "some pads survive" true (Array.length pads > 0);
  check Alcotest.bool "a strict subset of the intact pads" true
    (Array.length pads < Array.length intact
    && Array.for_all
         (fun p -> Array.exists (Int.equal p) intact)
         pads)

let test_truncated_eh_frame_hdr_fde_starts () =
  (* [.eh_frame_hdr] cut mid-table: the header (version, encodings, count)
     is intact, the entry pairs are not.  Pre-fix [Substrate.fde_starts]
     salvaged only [Invalid_argument] while the reader's [Out_of_bounds]
     escaped; now it falls back to walking the (intact) [.eh_frame]. *)
  let good = cpp_binary () in
  let t = Reader.read good in
  let hdr = Option.get (Reader.find_section t ".eh_frame_hdr") in
  let evil =
    shrink_section good ".eh_frame_hdr"
      ~keep:(String.length hdr.Reader.data - 4)
  in
  let starts = Cet_disasm.Substrate.fde_starts (Cet_disasm.Substrate.of_bytes evil) in
  let intact = Cet_disasm.Substrate.fde_starts (Cet_disasm.Substrate.of_bytes good) in
  check Alcotest.(list int) "fde starts salvaged via .eh_frame walk" intact starts

(* ---- Crash class: overlapping interval-table entries ------------------ *)

let test_itable_lenient_overlap () =
  (* Overlapping FDE extents from corrupt unwind info used to abort the
     Ghidra-like baseline inside a strict interval table: the lenient constructor
     must keep the first interval of each overlapping run,
     deterministically. *)
  let module I = Cet_util.Itable in
  let t = I.of_list_lenient [ (5, 15); (0, 10); (20, 30) ] in
  check Alcotest.bool "first of run kept" true (I.mem t 3);
  check Alcotest.bool "overlapping later dropped" false (I.mem t 12);
  check Alcotest.bool "disjoint kept" true (I.mem t 25);
  (* Determinism: input order must not matter for which interval survives
     (stable sort on lo, first of each overlapping run wins). *)
  let t2 = I.of_list_lenient [ (0, 10); (20, 30); (5, 15) ] in
  check Alcotest.bool "same survivors" true (I.mem t2 3 && (not (I.mem t2 12)) && I.mem t2 25)

(* ---- Deadlines -------------------------------------------------------- *)

let test_deadline_expires_sweep () =
  let big = String.make 65536 '\x90' in
  check Alcotest.bool "sweep aborts on expiry" true
    (try
       ignore (Deadline.with_ ~seconds:1e-9 (fun () -> Sweep.blob Arch.X64 big));
       false
     with Deadline.Expired _ -> true);
  (* And the fuzzer's robust pipeline converts the expiry into a
     diagnostic. *)
  let bytes = Writer.write (sample_image ~text:big ()) in
  match Cet_fuzz.Engine.analyze ~max_seconds:1e-9 ~anchored:false bytes with
  | Error d -> Alcotest.failf "refused instead of degrading: %s" (Diag.to_string d)
  | Ok (r, diags) ->
    check Alcotest.bool "empty result" true (r = Core.Funseeker.empty_result);
    check Alcotest.bool "timeout diag" true (has_code "timeout" diags)

let test_deadline_nesting () =
  check Alcotest.bool "invalid budget" true
    (try ignore (Deadline.with_ ~seconds:0.0 (fun () -> ())) ; false
     with Invalid_argument _ -> true);
  (* An inner deadline can not extend the outer one. *)
  check Alcotest.bool "inner bounded by outer" true
    (try
       Deadline.with_ ~seconds:1e-9 (fun () ->
           Deadline.with_ ~seconds:3600.0 (fun () ->
               Deadline.check "test";
               false))
     with Deadline.Expired _ -> true);
  check Alcotest.bool "inactive after exit" false (Deadline.active ())

(* ---- No .text --------------------------------------------------------- *)

let test_no_text_degrades () =
  (* No [.text] at all (symbols dropped too — the writer places them
     relative to their sections): the robust path reports an empty
     analysis instead of failing the binary. *)
  let img = sample_image () in
  let img =
    {
      img with
      Image.sections =
        List.filter (fun (s : Image.section) -> s.Image.name <> ".text") img.Image.sections;
      symbols = [];
    }
  in
  let bytes = Writer.write img in
  match Cet_fuzz.Engine.analyze ~anchored:false bytes with
  | Error d -> Alcotest.failf "refused instead of degrading: %s" (Diag.to_string d)
  | Ok (r, diags) ->
    check Alcotest.bool "empty result" true (r = Core.Funseeker.empty_result);
    check Alcotest.bool "no-text diag" true (has_code "no-text" diags)

(* The funseeker/cetaudit contract at the library level: every prefix of
   a binary is either refused with an error diagnostic or, when a [.text]
   survives, analyzed and audited without raising. *)
let test_truncated_elf_ends_in_diagnostic () =
  let bytes = cpp_binary () in
  let len = String.length bytes in
  for pct = 1 to 99 do
    let cut = String.sub bytes 0 (len * pct / 100) in
    match Substrate.of_bytes_diag cut with
    | Error d ->
      check Alcotest.bool (Printf.sprintf "%d%%: refusal is an error" pct) true
        (d.Diag.severity = Diag.Error)
    | Ok st -> (
      if Substrate.text st <> None then
        try
          ignore (Core.Funseeker.analyze_st st : Core.Funseeker.result);
          ignore (Core.Audit.audit_st st : Core.Audit.report)
        with e -> Alcotest.failf "%d%%: %s escaped" pct (Printexc.to_string e))
  done

(* ---- Fuzz engine ------------------------------------------------------ *)

let test_fuzz_smoke_deterministic () =
  let a = Cet_fuzz.Engine.run ~seed:5 ~count:40 () in
  let b = Cet_fuzz.Engine.run ~seed:5 ~count:40 () in
  check Alcotest.int "no crashes" 0 (List.length a.Cet_fuzz.Engine.crashes);
  check Alcotest.string "summary deterministic" (Cet_fuzz.Engine.render a)
    (Cet_fuzz.Engine.render b);
  check Alcotest.int "all mutants accounted" a.Cet_fuzz.Engine.total
    (a.Cet_fuzz.Engine.clean + a.Cet_fuzz.Engine.degraded + a.Cet_fuzz.Engine.rejected)

(* The robust pipeline's verdicts, pinned at seed 2022: a change to what
   degrades, what is rejected or what escapes moves this summary. *)
let test_fuzz_summary_pinned () =
  check Alcotest.string "seed 2022, 200 mutants"
    "cetfuzz: 200 mutants \u{2014} 109 clean, 40 degraded, 51 rejected, 0 crashes\n\
    \  header         41 mutants\n\
    \  shdr           30 mutants\n\
    \  lsda           38 mutants\n\
    \  flip           52 mutants\n\
    \  truncate       39 mutants\n"
    (Cet_fuzz.Engine.render (Cet_fuzz.Engine.run ~seed:2022 ~count:200 ()))

(* The walk-order verdict every parsed mutant gets holds on every
   twentieth prefix of a C++ corpus binary: a prefix that cuts [.text]
   short walks what is left, one that drops it makes both substrates
   raise alike.  So does an image with no [.text]. *)
let test_fuzz_walk_order () =
  let bytes = cpp_binary () in
  let len = String.length bytes in
  let no_text =
    let img = sample_image () in
    Writer.write
      {
        img with
        Image.sections =
          List.filter (fun (s : Image.section) -> s.Image.name <> ".text") img.Image.sections;
        symbols = [];
      }
  in
  Cet_fuzz.Engine.check_walk_order no_text;
  for k = 1 to 20 do
    Cet_fuzz.Engine.check_walk_order (String.sub bytes 0 (len * k / 20))
  done

(* ---- Fault-isolated harness ------------------------------------------- *)

let micro_profile =
  {
    Cet_corpus.Profile.coreutils with
    Cet_corpus.Profile.suite = "coreutils";
    programs = 2;
    funcs_lo = 30;
    funcs_hi = 40;
  }

let fault_opts =
  {
    Harness.default_options with
    Harness.seed = 99;
    scale = 1.0;
    timing = false;
    fault =
      Some (fun (b : Cet_corpus.Dataset.binary) -> b.Cet_corpus.Dataset.program = "coreutils_001");
  }

let two_configs =
  [
    Cet_compiler.Options.default;
    { Cet_compiler.Options.default with Cet_compiler.Options.arch = Arch.X86 };
  ]

let injected = Some "Failure(\"injected fault: coreutils/coreutils_001\")"

let test_harness_quarantine () =
  let r =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1
      { fault_opts with Harness.profile = true }
  in
  (* One of the two programs fails under both configs; the survivors'
     tables are complete and each failure carries its own error. *)
  check Alcotest.int "quarantined" 2 (List.length r.Harness.failures);
  check Alcotest.int "survivors" 2 r.Harness.binaries;
  List.iter
    (fun (f : Harness.profile) ->
      check Alcotest.string "program" "coreutils_001" f.Harness.p_program;
      check Alcotest.(option string) "injected error recorded" injected f.Harness.p_error)
    r.Harness.failures;
  (* The run file: one JSON object per binary, and an error on each
     quarantined one. *)
  let lines = String.split_on_char '\n' (String.trim (Run_file.rows r)) in
  check Alcotest.int "jsonl lines" 4 (List.length lines);
  List.iter
    (fun l ->
      check Alcotest.bool "looks like json" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  check Alcotest.int "an error on each quarantined row" 2
    (List.length (List.filter (contains ~needle:"\"error\":") lines));
  check Alcotest.bool "render mentions program" true
    (contains ~needle:"coreutils_001" (Harness.render_failures r))

(* What [write] prints for [r]. *)
let written write r =
  let tmp = Filename.temp_file "rows" ".jsonl" in
  let oc = open_out tmp in
  write oc r;
  close_out oc;
  let ic = open_in_bin tmp in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  text

(* The faulting plan, profiled, at jobs 1 and at jobs 4.  Per-binary
   items leave no grouping to make quarantine deterministic: it is so
   because every binary's verdict is, so everything the two runs report
   is byte-identical.  The three tests below share the two runs. *)
let quarantine_runs =
  lazy
    (let opts = { fault_opts with Harness.profile = true } in
     ( Harness.run ~profiles:[ micro_profile ] ~jobs:1 opts,
       Harness.run ~profiles:[ micro_profile ] ~jobs:4 opts ))

let test_harness_quarantine_parallel_identical () =
  (* With binaries quarantined mid-plan, the merged tables and the
     failure report are the same at jobs 1 and jobs 4. *)
  let seq, par = Lazy.force quarantine_runs in
  check Alcotest.bool "something quarantined" true (seq.Harness.failures <> []);
  check Alcotest.int "same survivors" seq.Harness.binaries par.Harness.binaries;
  check Alcotest.string "byte-identical tables" (Harness.render_all seq)
    (Harness.render_all par);
  check Alcotest.string "same failure order" (Harness.render_failures seq)
    (Harness.render_failures par)

let test_harness_profile_rows_parallel_identical () =
  let seq, par = Lazy.force quarantine_runs in
  check Alcotest.int "one row per binary, quarantined ones included"
    (seq.Harness.binaries + List.length seq.Harness.failures)
    (List.length seq.Harness.profiles);
  check Alcotest.string "same manifest rows" (Run_file.rows seq) (Run_file.rows par)

(* The quarantined rows of the run file, error and backtrace included. *)
let quarantined_rows r =
  List.filter
    (contains ~needle:"\"status\":\"quarantined\"")
    (String.split_on_char '\n' (Run_file.rows r))

let test_harness_quarantine_rows_parallel_identical () =
  let seq, par = Lazy.force quarantine_runs in
  let rows = quarantined_rows seq in
  check Alcotest.int "one row per failure" (List.length seq.Harness.failures)
    (List.length rows);
  List.iter
    (fun row ->
      check Alcotest.bool "error and backtrace carried" true
        (contains ~needle:"\"error\":" row && contains ~needle:"\"backtrace\":" row))
    rows;
  check Alcotest.(list string) "same quarantine rows" rows (quarantined_rows par)

let six_configs =
  [
    Cet_compiler.Options.default;
    { Cet_compiler.Options.default with Cet_compiler.Options.arch = Arch.X86 };
    { Cet_compiler.Options.default with Cet_compiler.Options.opt = Cet_compiler.Options.O0 };
    {
      Cet_compiler.Options.default with
      Cet_compiler.Options.compiler = Cet_compiler.Options.Clang;
    };
    { Cet_compiler.Options.default with Cet_compiler.Options.pie = false };
    {
      Cet_compiler.Options.default with
      Cet_compiler.Options.arch = Arch.X86;
      opt = Cet_compiler.Options.O0;
    };
  ]

let test_harness_whole_program_faults () =
  (* Every binary of coreutils_001 faults.  Each is quarantined on its
     own, with its own error and none skipped, and coreutils_000's cells
     are exactly those of a fault-free run over that program alone (the
     generator does not depend on the program count). *)
  let opts = { fault_opts with Harness.profile = true } in
  let r = Harness.run ~profiles:[ micro_profile ] ~configs:six_configs ~jobs:2 opts in
  check Alcotest.(list string) "one failure per configuration, in plan order"
    (List.map Cet_compiler.Options.to_string six_configs)
    (List.map (fun (f : Harness.profile) -> f.Harness.p_config) r.Harness.failures);
  List.iter
    (fun (f : Harness.profile) ->
      check Alcotest.string "program" "coreutils_001" f.Harness.p_program;
      check Alcotest.(option string) "its own injected error" injected f.Harness.p_error)
    r.Harness.failures;
  check Alcotest.(list string) "every faulting binary has a quarantined row"
    (List.init 6 (fun _ -> "quarantined"))
    (List.filter_map
       (fun (p : Harness.profile) ->
         if p.Harness.p_program = "coreutils_001" then Some p.Harness.p_status else None)
       r.Harness.profiles);
  let alone =
    Harness.run
      ~profiles:[ { micro_profile with Cet_corpus.Profile.programs = 1 } ]
      ~configs:six_configs ~jobs:1
      { Harness.default_options with Harness.seed = 99; scale = 1.0; timing = false }
  in
  check Alcotest.int "survivors" alone.Harness.binaries r.Harness.binaries;
  check Alcotest.string "other program's cells = fault-free run"
    (Harness.render_all alone) (Harness.render_all r)

let test_harness_fail_fast () =
  let opts = { fault_opts with Harness.keep_going = false } in
  check Alcotest.bool "fail-fast re-raises" true
    (try
       ignore (Harness.run ~profiles:[ micro_profile ] ~jobs:1 opts);
       false
     with Failure msg -> contains ~needle:"injected fault" msg)

let test_runs_restore_backtrace_status () =
  (* A run records backtraces (a quarantine row or a crash record carries
     one) and hands the caller's setting back, on return and on raise. *)
  let saved = Printexc.backtrace_status () in
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace saved)
    (fun () ->
      Printexc.record_backtrace false;
      let r = Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1 fault_opts in
      check Alcotest.int "quarantined" 2 (List.length r.Harness.failures);
      List.iter
        (fun (f : Harness.profile) ->
          check Alcotest.bool "the row has a backtrace" true
            (match f.Harness.p_backtrace with Some bt -> bt <> "" | None -> false))
        r.Harness.failures;
      check Alcotest.bool "off after a run that quarantines" false (Printexc.backtrace_status ());
      check Alcotest.bool "fail-fast raises" true
        (try
           ignore
             (Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1
                { fault_opts with Harness.keep_going = false });
           false
         with Failure _ -> true);
      check Alcotest.bool "off after a run that raises" false (Printexc.backtrace_status ());
      ignore (Cet_fuzz.Engine.run ~seed:5 ~count:8 ~jobs:1 () : Cet_fuzz.Engine.summary);
      check Alcotest.bool "off after a fuzz run" false (Printexc.backtrace_status ()))

(* ---- The per-binary deadline (--max-seconds) --------------------------- *)

let test_harness_deadline_quarantines () =
  (* A budget no binary can meet.  The decoder polls the deadline once
     every 4096 instructions of a walk, so a binary whose analysis reaches
     a poll expires there and is quarantined, with the loop that noticed
     and the budget in its error; one too small to reach a poll finishes.
     Which is which depends on the bytes alone, so the run reports the
     same at any jobs. *)
  let opts =
    {
      Harness.default_options with
      Harness.seed = 99;
      scale = 1.0;
      timing = false;
      profile = true;
      max_seconds = Some 1e-9;
    }
  in
  let run jobs = Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs opts in
  let r = run 1 in
  let quarantined = List.length r.Harness.failures in
  check Alcotest.bool "the deadline quarantined some" true (quarantined > 0);
  check Alcotest.int "every binary evaluated or quarantined" 4 (r.Harness.binaries + quarantined);
  List.iter
    (fun (f : Harness.profile) ->
      let error = Option.value ~default:"" f.Harness.p_error in
      check Alcotest.bool ("deadline error: " ^ error) true
        (contains ~needle:"Deadline.Expired(" error && contains ~needle:"budget 1e-09s)" error))
    r.Harness.failures;
  check Alcotest.int "quarantined profile rows" quarantined
    (List.length
       (List.filter (fun (p : Harness.profile) -> p.Harness.p_status = "quarantined") r.Harness.profiles));
  let r2 = run 2 in
  check Alcotest.string "same tables at jobs 2" (Harness.render_all r) (Harness.render_all r2);
  check Alcotest.string "same failure report at jobs 2" (Harness.render_failures r)
    (Harness.render_failures r2);
  check Alcotest.string "same manifest rows at jobs 2" (Run_file.rows r) (Run_file.rows r2)

(* ---- --progress accounting under quarantine ---------------------------- *)

(* Run [f] with stderr redirected to a temp file; return (result, text). *)
let capture_stderr f =
  let tmp = Filename.temp_file "progress" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let restore () =
    flush stderr;
    Unix.dup2 saved Unix.stderr;
    Unix.close saved
  in
  let r = try f () with e -> restore (); Sys.remove tmp; raise e in
  restore ();
  let ic = open_in_bin tmp in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  (r, text)

let test_progress_counts_each_binary_once () =
  (* The faulting plan quarantines 2 of the 4 binaries.  The progress
     accounting must still count every binary exactly once — the summary
     line pins done = 4 of 4, 2 quarantined. *)
  let opts = { fault_opts with Harness.progress = true } in
  let r, text =
    capture_stderr (fun () ->
        Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:2
          opts)
  in
  check Alcotest.int "quarantined" 2 (List.length r.Harness.failures);
  check Alcotest.bool "summary counts each binary once" true
    (contains ~needle:"4/4 binaries" text);
  check Alcotest.bool "summary reports quarantines" true
    (contains ~needle:"2 quarantined" text);
  check Alcotest.bool "no overcount anywhere" false
    (contains ~needle:"5/4" text || contains ~needle:"6/4" text)

(* ---- Quarantine rows round-trip ---------------------------------------- *)

let test_quarantine_roundtrip () =
  let r =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1
      { fault_opts with Harness.profile = true }
  in
  check Alcotest.int "two failures to serialise" 2
    (List.length r.Harness.failures);
  let text = Run_file.text r in
  check Alcotest.bool "the header carries the schema" true
    (contains ~needle:"\"schema\":3" text);
  (match Manifest.parse text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok m ->
    check Alcotest.bool "parsed = written" true (m.Manifest.rows = r.Harness.profiles);
    check Alcotest.bool "quarantined rows = failures" true
      (List.filter (fun (p : Manifest.row) -> p.Manifest.p_status = "quarantined") m.Manifest.rows
      = r.Harness.failures);
    check Alcotest.int "quarantined count in the header" 2 m.Manifest.r_quarantined);
  List.iter
    (fun key ->
      check Alcotest.bool ("rows carry no " ^ key) false
        (contains ~needle:(Printf.sprintf "\"%s\":" key) text))
    [ "attempts"; "journal" ];
  (* A quarantined row's error and backtrace are strings or absent: any
     other value is refused, not misread. *)
  let mistyped =
    let at = ref 0 and needle = "\"backtrace\":\"" in
    while String.sub text !at (String.length needle) <> needle do incr at done;
    String.sub text 0 !at ^ "\"backtrace\":7,\"x\":\""
    ^ String.sub text (!at + String.length needle) (String.length text - !at - String.length needle)
  in
  check Alcotest.(result pass string) "mistyped backtrace rejected"
    (Error "field \"backtrace\" is neither string nor null")
    (Result.map ignore (Manifest.parse mistyped));
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Manifest.parse "{\"schema\":oops}\n"))

(* ---- Crash-report JSONL round-trip ------------------------------------- *)

let test_crash_report_roundtrip () =
  let module E = Cet_fuzz.Engine in
  (* A hand-built summary: every field must survive exactly — including
     characters the JSON escaper must cover. *)
  let crash =
    {
      E.c_class = "elf-header";
      c_index = 41;
      c_error = "Failure(\"bad \\ byte\ttab\")";
      c_backtrace = "Raised at line 1\nCalled from line 2";
    }
  in
  let s =
    {
      E.total = 100;
      per_class = [ ("elf-header", 50); ("byte-flip", 50) ];
      clean = 60;
      degraded = 39;
      rejected = 0;
      timeouts = 1;
      crashes = [ crash ];
    }
  in
  let text = written E.write_crashes s in
  check Alcotest.bool "rows carry the schema" true
    (contains ~needle:(Printf.sprintf "\"schema\":%d" Crash_file.schema) text);
  (match Crash_file.read text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok [ back ] ->
    check Alcotest.string "class" crash.E.c_class back.E.c_class;
    check Alcotest.int "index" crash.E.c_index back.E.c_index;
    check Alcotest.string "error survives escaping" crash.E.c_error
      back.E.c_error;
    check Alcotest.string "backtrace survives newlines" crash.E.c_backtrace
      back.E.c_backtrace
  | Ok l -> Alcotest.failf "expected 1 crash, parsed %d" (List.length l));
  (* Version skew is refused. *)
  let tampered =
    Printf.sprintf
      "{\"schema\":%d,\"class\":\"x\",\"index\":0,\"error\":\"e\",\
       \"backtrace\":\"\"}\n"
      (Crash_file.schema + 1)
  in
  check Alcotest.bool "wrong schema rejected" true
    (Result.is_error (Crash_file.read tampered))

(* A row the reader cannot type is refused by the name of its field, and
   text that is not JSON lines is refused too: a damaged crash file is not
   read as fewer crashes. *)
let test_crash_file_malformed () =
  let row fields = "{" ^ String.concat "," fields ^ "}\n" in
  let good =
    [
      Printf.sprintf "\"schema\":%d" Crash_file.schema; "\"class\":\"x\""; "\"index\":0";
      "\"error\":\"e\""; "\"backtrace\":\"\"";
    ]
  in
  check Alcotest.int "the well-formed row reads" 1
    (match Crash_file.read (row good) with Ok l -> List.length l | Error e -> Alcotest.fail e);
  List.iteri
    (fun i name ->
      check Alcotest.(result pass string) (name ^ " missing")
        (Error (Printf.sprintf "missing or mistyped field %S" name))
        (Result.map ignore (Crash_file.read (row (List.filteri (fun j _ -> j <> i) good)))))
    [ "schema"; "class"; "index"; "error"; "backtrace" ];
  check Alcotest.(result pass string) "index mistyped"
    (Error "missing or mistyped field \"index\"")
    (Result.map ignore
       (Crash_file.read (row (List.map (fun f -> if f = "\"index\":0" then "\"index\":\"0\"" else f) good))));
  check Alcotest.bool "not JSON" true
    (Result.is_error (Crash_file.read (row good ^ "crash\n")))

(* ---- The previous row formats ------------------------------------------ *)

(* Files in the retired formats are refused by name, not misread: the
   quarantine rows of schemas 3 and 4 (the retired --quarantine-out file)
   are no run header, and crash rows of schema 1 carried the journal. *)
let test_old_schema_rows_rejected () =
  List.iter
    (fun schema ->
      check Alcotest.(result pass string)
        (Printf.sprintf "quarantine schema %d rejected" schema)
        (Error "first manifest row is not a kind:\"run\" header")
        (Result.map ignore
           (Manifest.parse
              (Printf.sprintf
                 "{\"schema\":%d,\"suite\":\"s\",\"program\":\"p\",\"config\":\"c\",\
                  \"error\":\"e\",\"backtrace\":\"\"}\n"
                 schema))))
    [ 3; 4 ];
  check Alcotest.(result pass string) "crash schema 1 rejected"
    (Error "unsupported schema 1 (want 2)")
    (Result.map ignore
       (Crash_file.read
          "{\"schema\":1,\"class\":\"x\",\"index\":0,\"error\":\"e\",\
           \"backtrace\":\"\",\"journal\":[]}\n"))

(* ---- Fuzz engine across jobs ------------------------------------------- *)

let test_fuzz_deadline_degrades () =
  (* The per-mutant deadline: under a budget no analysis can meet, every
     mutant that reads as an ELF degrades with a timeout diagnostic and
     none crashes; the summary is the same at any jobs. *)
  let run jobs = Cet_fuzz.Engine.run ~max_seconds:1e-9 ~seed:5 ~count:16 ~jobs () in
  let s = run 1 in
  check Alcotest.int "no crash" 0 (List.length s.Cet_fuzz.Engine.crashes);
  check Alcotest.int "nothing clean" 0 s.Cet_fuzz.Engine.clean;
  check Alcotest.bool "some analyses ran" true (s.Cet_fuzz.Engine.degraded > 0);
  check Alcotest.int "every analysis timed out" s.Cet_fuzz.Engine.degraded
    s.Cet_fuzz.Engine.timeouts;
  check Alcotest.int "every mutant accounted for" s.Cet_fuzz.Engine.total
    (s.Cet_fuzz.Engine.degraded + s.Cet_fuzz.Engine.rejected);
  check Alcotest.string "same summary at jobs 2" (Cet_fuzz.Engine.render s)
    (Cet_fuzz.Engine.render (run 2))

let test_fuzz_jobs_identical () =
  let j1 = Cet_fuzz.Engine.run ~seed:11 ~count:40 ~jobs:1 () in
  let j4 = Cet_fuzz.Engine.run ~seed:11 ~count:40 ~jobs:4 () in
  check Alcotest.string "fuzz summary identical at jobs 1 and 4"
    (Cet_fuzz.Engine.render j1) (Cet_fuzz.Engine.render j4)

let suite =
  [
    ( "robust",
      [
        Alcotest.test_case "leb128 overlong rejected" `Quick test_leb128_overlong;
        Alcotest.test_case "reader offset overflow" `Quick test_reader_offset_overflow;
        Alcotest.test_case "truncated shdr salvage" `Quick test_truncated_shdr_salvage;
        Alcotest.test_case "bad LSDA encoding degrades" `Quick test_bad_lsda_encoding_degrades;
        Alcotest.test_case "corrupt .eh_frame salvage" `Quick test_corrupt_eh_frame_salvage;
        Alcotest.test_case "truncated LSDA on production landing_pads" `Quick
          test_truncated_lsda_landing_pads;
        Alcotest.test_case "truncated .eh_frame_hdr on production fde_starts" `Quick
          test_truncated_eh_frame_hdr_fde_starts;
        Alcotest.test_case "itable lenient overlap" `Quick test_itable_lenient_overlap;
        Alcotest.test_case "deadline expires sweep" `Quick test_deadline_expires_sweep;
        Alcotest.test_case "deadline nesting" `Quick test_deadline_nesting;
        Alcotest.test_case "missing .text degrades" `Quick test_no_text_degrades;
        Alcotest.test_case "fuzz smoke deterministic" `Slow test_fuzz_smoke_deterministic;
        Alcotest.test_case "harness quarantine" `Quick test_harness_quarantine;
        Alcotest.test_case "harness quarantine parallel" `Slow
          test_harness_quarantine_parallel_identical;
        Alcotest.test_case "harness profile rows identical at jobs 1 and 4" `Slow
          test_harness_profile_rows_parallel_identical;
        Alcotest.test_case "harness quarantine rows identical at jobs 1 and 4" `Slow
          test_harness_quarantine_rows_parallel_identical;
        Alcotest.test_case "harness fail-fast" `Quick test_harness_fail_fast;
        Alcotest.test_case "runs restore backtrace recording" `Quick
          test_runs_restore_backtrace_status;
        Alcotest.test_case "harness whole-program faults" `Quick
          test_harness_whole_program_faults;
        Alcotest.test_case "harness deadline quarantines what expires" `Quick
          test_harness_deadline_quarantines;
        Alcotest.test_case "progress counts each binary once" `Quick
          test_progress_counts_each_binary_once;
        Alcotest.test_case "quarantine jsonl round-trip" `Quick
          test_quarantine_roundtrip;
        Alcotest.test_case "crash report jsonl round-trip" `Quick
          test_crash_report_roundtrip;
        Alcotest.test_case "crash file: malformed rows refused" `Quick test_crash_file_malformed;
        Alcotest.test_case "old quarantine and crash schemas rejected" `Quick
          test_old_schema_rows_rejected;
        Alcotest.test_case "fuzz deadline degrades, never crashes" `Slow
          test_fuzz_deadline_degrades;
        Alcotest.test_case "fuzz summary identical at jobs 1 and 4" `Slow
          test_fuzz_jobs_identical;
        Alcotest.test_case "fuzz summary pinned (seed 2022)" `Slow test_fuzz_summary_pinned;
        Alcotest.test_case "truncated ELF ends in a diagnostic" `Quick
          test_truncated_elf_ends_in_diagnostic;
        Alcotest.test_case "fuzz walk-order verdict on prefixes" `Quick test_fuzz_walk_order;
      ] );
  ]
