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
    symbols = [ Cet_elf.Symbol.func "main" 0x1010 ~size:16 ];
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
     Ghidra-like baseline inside Itable.of_list: the lenient constructor
     must keep the first interval of each overlapping run,
     deterministically. *)
  let module I = Cet_util.Itable in
  check Alcotest.bool "of_list still strict" true
    (try ignore (I.of_list [ (0, 10, "a"); (5, 15, "b") ]) ; false
     with Invalid_argument _ -> true);
  let value t x = Option.map (fun (_, _, v) -> v) (I.find t x) in
  let t = I.of_list_lenient [ (5, 15, "b"); (0, 10, "a"); (20, 30, "c") ] in
  check Alcotest.bool "first of run kept" true (value t 3 = Some "a");
  check Alcotest.bool "overlapping later dropped" true (value t 12 = None);
  check Alcotest.bool "disjoint kept" true (value t 25 = Some "c");
  (* Determinism: input order must not matter for which interval survives
     (stable sort on lo, first of each overlapping run wins). *)
  let t2 = I.of_list_lenient [ (0, 10, "a"); (20, 30, "c"); (5, 15, "b") ] in
  check Alcotest.bool "same survivors" true
    (value t2 3 = Some "a" && value t2 12 = None && value t2 25 = Some "c")

(* ---- Deadlines -------------------------------------------------------- *)

let test_deadline_expires_sweep () =
  let big = String.make 65536 '\x90' in
  check Alcotest.bool "sweep aborts on expiry" true
    (try
       ignore (Deadline.with_ ~seconds:1e-9 (fun () -> Cet_disasm.Linear.sweep Arch.X64 big));
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

let test_harness_quarantine () =
  let r =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1
      fault_opts
  in
  (* One of the two programs fails under both configs; the survivors'
     tables are complete and the failures carry the retry count. *)
  check Alcotest.int "quarantined" 2 (List.length r.Harness.failures);
  check Alcotest.int "survivors" 2 r.Harness.binaries;
  List.iter
    (fun (f : Harness.failure) ->
      check Alcotest.string "program" "coreutils_001" f.Harness.f_program;
      check Alcotest.int "retried once" 2 f.Harness.f_attempts;
      check Alcotest.bool "injected error recorded" true
        (String.length f.Harness.f_error > 0))
    r.Harness.failures;
  (* Quarantine report: one JSON object per failure. *)
  let buf = Buffer.create 256 in
  let tmp = Filename.temp_file "quarantine" ".jsonl" in
  let oc = open_out tmp in
  Harness.write_quarantine oc r;
  close_out oc;
  let ic = open_in tmp in
  (try
     while true do
       Buffer.add_string buf (input_line ic);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> close_in ic);
  Sys.remove tmp;
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  check Alcotest.int "jsonl lines" 2 (List.length lines);
  List.iter
    (fun l ->
      check Alcotest.bool "looks like json" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  check Alcotest.bool "render mentions program" true
    (contains ~needle:"coreutils_001" (Harness.render_failures r))

let test_harness_quarantine_parallel_identical () =
  (* The surviving set's merged tables must stay byte-identical across
     --jobs even when some binaries are quarantined mid-plan. *)
  let seq = Harness.run ~profiles:[ micro_profile ] ~jobs:1 fault_opts in
  let par = Harness.run ~profiles:[ micro_profile ] ~jobs:4 fault_opts in
  check Alcotest.int "same survivors" seq.Harness.binaries par.Harness.binaries;
  check Alcotest.int "same quarantine" (List.length seq.Harness.failures)
    (List.length par.Harness.failures);
  check Alcotest.string "byte-identical tables" (Harness.render_all seq)
    (Harness.render_all par);
  check Alcotest.string "same failure order" (Harness.render_failures seq)
    (Harness.render_failures par)

let test_harness_fail_fast () =
  let opts = { fault_opts with Harness.keep_going = false } in
  check Alcotest.bool "fail-fast re-raises" true
    (try
       ignore (Harness.run ~profiles:[ micro_profile ] ~jobs:1 opts);
       false
     with Failure msg -> contains ~needle:"injected fault" msg)

(* ---- Scheduler chaos: timing only, never results ----------------------- *)

let test_harness_chaos_identical () =
  (* The strongest identity: a faulting plan (quarantines, retries) with
     per-binary profiling, sequential-and-calm vs parallel-under-chaos.
     Tables, failure order, and every profile row must match byte for
     byte — chaos may only move work around in time. *)
  let opts = { fault_opts with Harness.profile = true } in
  let calm =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1 opts
  in
  let stormy =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:4
      { opts with Harness.chaos = Some 7 }
  in
  check Alcotest.string "byte-identical tables under chaos"
    (Harness.render_all calm) (Harness.render_all stormy);
  check Alcotest.string "same failure report under chaos"
    (Harness.render_failures calm) (Harness.render_failures stormy);
  check Alcotest.bool "identical profile rows under chaos" true
    (calm.Harness.profiles = stormy.Harness.profiles);
  check Alcotest.int "same survivors" calm.Harness.binaries
    stormy.Harness.binaries

(* ---- Graceful degradation: shedding under deadline pressure ------------ *)

let test_harness_sheds_under_pressure () =
  (* shed_fraction 2.0 beats any real remaining fraction, so a generous
     run deadline sheds every binary deterministically: all rows run the
     anchored-only analysis and say so in their profile status. *)
  let opts =
    {
      Harness.default_options with
      Harness.seed = 99;
      scale = 1.0;
      timing = false;
      profile = true;
      run_seconds = Some 3600.0;
      shed_fraction = 2.0;
    }
  in
  let r =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:2 opts
  in
  check Alcotest.int "nothing quarantined" 0 (List.length r.Harness.failures);
  check Alcotest.int "all binaries evaluated (degraded)" 4 r.Harness.binaries;
  check Alcotest.int "one profile row per binary" 4
    (List.length r.Harness.profiles);
  List.iter
    (fun (p : Harness.profile) ->
      check Alcotest.string "status records the downgrade" "shed"
        p.Harness.p_status)
    r.Harness.profiles;
  (* Shed rows are still deterministic: same run again, byte-identical. *)
  let r2 =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1 opts
  in
  check Alcotest.string "shed tables identical across jobs"
    (Harness.render_all r) (Harness.render_all r2);
  check Alcotest.bool "shed profiles identical across jobs" true
    (r.Harness.profiles = r2.Harness.profiles)

(* ---- --progress accounting under retry and quarantine ------------------ *)

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
  (* The faulting plan retries (2 attempts) and quarantines 2 of the 4
     binaries.  The progress accounting must still count every binary
     exactly once — the summary line pins done = 4 of 4, 2 quarantined,
     2 retried, however many attempts the guard burned. *)
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
  check Alcotest.bool "summary reports retries" true
    (contains ~needle:"2 retried" text);
  check Alcotest.bool "no overcount anywhere" false
    (contains ~needle:"5/4" text || contains ~needle:"6/4" text)

(* ---- Quarantine JSONL round-trip --------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_quarantine_roundtrip () =
  let r =
    Harness.run ~profiles:[ micro_profile ] ~configs:two_configs ~jobs:1
      fault_opts
  in
  check Alcotest.int "two failures to serialise" 2
    (List.length r.Harness.failures);
  let tmp = Filename.temp_file "quarantine" ".jsonl" in
  let oc = open_out tmp in
  Harness.write_quarantine oc r;
  close_out oc;
  let text = read_file tmp in
  Sys.remove tmp;
  check Alcotest.bool "rows carry the schema" true
    (contains
       ~needle:(Printf.sprintf "\"schema\":%d" Harness.quarantine_schema)
       text);
  (match Harness.read_quarantine text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok failures ->
    (* The journal was disabled during the run, so the black boxes are
       empty and the records round-trip exactly. *)
    check Alcotest.bool "parsed = written" true
      (failures = r.Harness.failures));
  (* A wrong schema version is refused, not misread. *)
  let tampered =
    Printf.sprintf "{\"schema\":%d,\"suite\":\"s\",\"program\":\"p\",\
                    \"config\":\"c\",\"attempts\":1,\"error\":\"e\",\
                    \"backtrace\":\"\",\"journal\":[]}\n"
      (Harness.quarantine_schema + 1)
  in
  check Alcotest.bool "wrong schema rejected" true
    (Result.is_error (Harness.read_quarantine tampered));
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Harness.read_quarantine "{\"schema\":oops}\n"))

(* ---- Crash-report JSONL round-trip ------------------------------------- *)

let test_crash_report_roundtrip () =
  let module E = Cet_fuzz.Engine in
  let module J = Cet_telemetry.Journal in
  (* A hand-built summary with a black box: ring ids are not serialised,
     so the round-trip normalises them to -1 and everything else must
     survive exactly — including characters the JSON escaper must cover. *)
  let event kind name v =
    { J.j_kind = kind; j_name = name; j_v = v; j_ns = 123_456; j_ring = 9 }
  in
  let crash =
    {
      E.c_class = "elf-header";
      c_index = 41;
      c_error = "Failure(\"bad \\ byte\ttab\")";
      c_backtrace = "Raised at line 1\nCalled from line 2";
      c_journal =
        [ event J.Diag "elf/truncated" 3; event J.Deadline_slack "sweep" 77 ];
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
  let tmp = Filename.temp_file "crashes" ".jsonl" in
  let oc = open_out tmp in
  E.write_crashes oc s;
  close_out oc;
  let text = read_file tmp in
  Sys.remove tmp;
  check Alcotest.bool "rows carry the schema" true
    (contains ~needle:(Printf.sprintf "\"schema\":%d" E.crash_schema) text);
  (match E.read_crashes text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok [ back ] ->
    check Alcotest.string "class" crash.E.c_class back.E.c_class;
    check Alcotest.int "index" crash.E.c_index back.E.c_index;
    check Alcotest.string "error survives escaping" crash.E.c_error
      back.E.c_error;
    check Alcotest.string "backtrace survives newlines" crash.E.c_backtrace
      back.E.c_backtrace;
    check Alcotest.bool "journal events round-trip (ring id reset)" true
      (back.E.c_journal
      = List.map (fun e -> { e with J.j_ring = -1 }) crash.E.c_journal)
  | Ok l -> Alcotest.failf "expected 1 crash, parsed %d" (List.length l));
  (* Version skew is refused. *)
  let tampered =
    Printf.sprintf
      "{\"schema\":%d,\"class\":\"x\",\"index\":0,\"error\":\"e\",\
       \"backtrace\":\"\",\"journal\":[]}\n"
      (E.crash_schema + 1)
  in
  check Alcotest.bool "wrong schema rejected" true
    (Result.is_error (E.read_crashes tampered))

(* ---- Fuzz engine under jobs and chaos ---------------------------------- *)

let test_fuzz_chaos_identical () =
  let base = Cet_fuzz.Engine.run ~seed:11 ~count:40 ~jobs:1 () in
  let stormy = Cet_fuzz.Engine.run ~seed:11 ~count:40 ~jobs:4 ~chaos:99 () in
  check Alcotest.string "fuzz summary identical under jobs+chaos"
    (Cet_fuzz.Engine.render base)
    (Cet_fuzz.Engine.render stormy)

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
        Alcotest.test_case "harness fail-fast" `Quick test_harness_fail_fast;
        Alcotest.test_case "harness chaos identical" `Slow
          test_harness_chaos_identical;
        Alcotest.test_case "harness sheds under pressure" `Quick
          test_harness_sheds_under_pressure;
        Alcotest.test_case "progress counts each binary once" `Quick
          test_progress_counts_each_binary_once;
        Alcotest.test_case "quarantine jsonl round-trip" `Quick
          test_quarantine_roundtrip;
        Alcotest.test_case "crash report jsonl round-trip" `Quick
          test_crash_report_roundtrip;
        Alcotest.test_case "fuzz chaos identical" `Slow
          test_fuzz_chaos_identical;
        Alcotest.test_case "fuzz summary pinned (seed 2022)" `Slow test_fuzz_summary_pinned;
        Alcotest.test_case "truncated ELF ends in a diagnostic" `Quick
          test_truncated_elf_ends_in_diagnostic;
      ] );
  ]
