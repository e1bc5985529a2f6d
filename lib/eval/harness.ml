module Reader = Cet_elf.Reader
module Substrate = Cet_disasm.Substrate
module Options = Cet_compiler.Options
module Dataset = Cet_corpus.Dataset
module Work_queue = Cet_util.Work_queue

type options = {
  seed : int;
  scale : float;
  progress : bool;
  timing : bool;
  max_seconds : float option;
  keep_going : bool;
  fault : (Dataset.binary -> bool) option;
  triage : bool;
  profile : bool;
}

let default_options =
  {
    seed = 2022;
    scale = 0.25;
    progress = false;
    timing = true;
    max_seconds = None;
    keep_going = true;
    fault = None;
    triage = false;
    profile = false;
  }

type profile = Cet_obs.Manifest.row = {
  p_suite : string;
  p_program : string;
  p_config : string;
  p_arch : string;
  p_digest : string;
  p_text_bytes : int;
  p_insns : int;
  p_resyncs : int;
  p_truth : int;
  p_status : string;
  p_total_ms : float;
  p_phases : (string * float) list;
  p_error : string option;
  p_backtrace : string option;
}

(* Fixed phase vocabulary so every profile row carries the same keys in the
   same order — the JSONL output is diffable and byte-identical across
   [~jobs] under [timing = false]. *)
let profile_phase_names =
  [ "study"; "configs"; "funseeker"; "ida"; "ghidra"; "fetch"; "triage" ]

type results = {
  table1 : Tables.Table1.t;
  fig3 : Tables.Fig3.t;
  table2 : Tables.Table2.t;
  table3 : Tables.Table3.t;
  triage : Tables.Triage.t;
  binaries : int;
  functions : int;
  failures : profile list;
  profiles : profile list;
}

let arch_name = function Cet_x86.Arch.X86 -> "x86" | Cet_x86.Arch.X64 -> "x64"

(* Content identity of one analyzed binary: an MD5 over its stripped ELF
   bytes — exactly what every tool sees.  The corpus generator is
   deterministic in the seed, so the digest is stable across runs and
   jobs; it is the join key for every cross-run comparison
   (cetstat diff) and the first half of the ROADMAP's content-addressed
   result store. *)
let content_digest bytes = Digest.to_hex (Digest.string bytes)

let timed f x =
  let t0 = Unix.gettimeofday () in
  let r = f x in
  (r, Unix.gettimeofday () -. t0)

(* Ground-truth entry addresses of one binary, deduplicated: aliased
   symbols may map distinct names to one address, and every consumer of a
   truth list measures the set of entries, not the symbol table. *)
let truth_addrs (bin : Dataset.binary) =
  List.sort_uniq Int.compare (List.map snd bin.truth)

let empty_results () =
  {
    table1 = Tables.Table1.create ();
    fig3 = Tables.Fig3.create ();
    table2 = Tables.Table2.create ();
    table3 = Tables.Table3.create ();
    triage = Tables.Triage.create ();
    binaries = 0;
    functions = 0;
    failures = [];
    profiles = [];
  }

(* The per-binary results, merged in plan order: the tables fold into
   one accumulator, and the failure and profile lists are concatenated
   once, so the merge is linear in the number of binaries. *)
let merge_results parts =
  let into = empty_results () in
  Array.iter
    (fun src ->
      Tables.Table1.merge into.table1 src.table1;
      Tables.Fig3.merge into.fig3 src.fig3;
      Tables.Table2.merge into.table2 src.table2;
      Tables.Table3.merge into.table3 src.table3;
      Tables.Triage.merge into.triage src.triage)
    parts;
  let parts = Array.to_list parts in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 parts in
  {
    into with
    binaries = sum (fun r -> r.binaries);
    functions = sum (fun r -> r.functions);
    failures = List.concat_map (fun r -> r.failures) parts;
    profiles = List.concat_map (fun r -> r.profiles) parts;
  }

(* EWMA over the instantaneous throughput between progress milestones: the
   first observation seeds the average, later ones smooth with [alpha].
   Pure, so the smoothing itself is unit-testable. *)
let ewma_update ~alpha ~prev x =
  match prev with None -> x | Some p -> (alpha *. x) +. ((1.0 -. alpha) *. p)

let scheduler ?jobs (opts : options) =
  Work_queue.create ~observer:Cet_telemetry.Bridge.scheduler_observer
    (Work_queue.config ?jobs ~seed:opts.seed ())

let run_recording ?profiles ?configs ?jobs (opts : options) =
  let plan = Dataset.plan ?profiles ?configs ~seed:opts.seed ~scale:opts.scale () in
  let total_binaries = Dataset.length plan in
  let t0 = Unix.gettimeofday () in
  let progress = Atomic.make 0 in
  (* Live status line: done/total with rate and ETA, throttled so the
     stderr traffic stays negligible.  Racing workers may interleave
     updates, but each is one whole carriage-returned line.  The rate is
     EWMA-smoothed over the inter-milestone throughput — a cumulative
     average makes the early ETA wildly wrong whenever the first binaries
     are unrepresentative (cold caches, a straggler) — while the final
     summary below stays the exact cumulative figure. *)
  let prog_lock = Mutex.create () in
  let prog_last_t = ref t0 in
  let prog_last_seen = ref 0 in
  let prog_rate = ref None in
  let show_progress seen =
    if seen mod 25 = 0 || seen = total_binaries then begin
      let now = Unix.gettimeofday () in
      let rate =
        Mutex.protect prog_lock (fun () ->
            let dt = now -. !prog_last_t in
            let dn = seen - !prog_last_seen in
            (* Milestones can arrive out of order from racing workers;
               only a forward step updates the average. *)
            if dn > 0 && dt > 0.0 then begin
              prog_rate :=
                Some
                  (ewma_update ~alpha:0.3 ~prev:!prog_rate
                     (float_of_int dn /. dt));
              prog_last_t := now;
              prog_last_seen := seen
            end;
            match !prog_rate with
            | Some r -> r
            | None ->
              let elapsed = now -. t0 in
              if elapsed > 0.0 then float_of_int seen /. elapsed else 0.0)
      in
      let eta =
        if rate > 0.0 then float_of_int (total_binaries - seen) /. rate else 0.0
      in
      Printf.eprintf "\r  %d/%d binaries  %.1f bin/s  ETA %.0fs " seen total_binaries
        rate eta;
      flush stderr
    end
  in
  (* Per-binary unit of work, accumulating into a fresh result of its own.
     Nothing here touches shared state except the progress counter, so
     any domain can evaluate any plan item. *)
  let eval_binary_impl (bin : Dataset.binary) =
    let acc = empty_results () in
    let bin_t0 = Unix.gettimeofday () in
    (* One substrate per binary per worker: the ELF parse, the sweep, the
       index arrays and the exception-table decode happen once here and
       every consumer below — the study, the four ablation configs, and
       all of Table III's tools — reads the memoised copy.  The sweep runs
       first, so one walk of [.text] fills the stream, the indexes and the
       facts. *)
    let st = Substrate.of_bytes bin.stripped in
    let truth = truth_addrs bin in
    let compiler = Options.compiler_name bin.config.Options.compiler in
    let suite = bin.suite in
    let arch = arch_name bin.config.Options.arch in
    let config_s = Options.to_string bin.config in
    (* Table I (end-branch location classes) and Figure 3 (per-function
       property classes). *)
    let (), study_time =
      timed
        (fun () ->
          ignore (Substrate.sweep st : Cet_disasm.Linear.t);
          List.iter
            (fun (_addr, loc) -> Tables.Table1.record acc.table1 ~compiler ~suite loc)
            (Core.Study.classify_endbrs_st st ~truth);
          List.iter
            (fun (_addr, props) -> Tables.Fig3.record acc.fig3 props)
            (Core.Study.function_props_st st ~truth))
        ()
    in
    (* Table II: the first three FunSeeker configurations. *)
    let (), configs_time =
      timed
        (fun () ->
          List.iteri
            (fun i config ->
              let r = Core.Funseeker.analyze_st ~config st in
              Tables.Table2.record acc.table2 ~compiler ~suite ~config:(i + 1)
                (Metrics.compare_sets ~truth ~found:r.Core.Funseeker.functions))
            [ Core.Funseeker.config1; Core.Funseeker.config2; Core.Funseeker.config3 ])
        ()
    in
    (* Table III: tool comparison with timing for FunSeeker and FETCH.
       Timed runs measure each tool's own analysis over the shared
       substrate — the once-per-binary parse and sweep are excluded (see
       DESIGN.md §11), which isolates exactly the algorithmic cost the
       paper's Table III discusses.  With [timing = false] the clock
       columns stay zero, which keeps the rendered output deterministic
       in the seed.  FunSeeker runs in its full configuration (its
       default), once: the run is also Table II's fourth. *)
    let fs, fs_time =
      timed
        (fun st ->
          (Core.Funseeker.analyze_st ~config:Core.Funseeker.config4 st).Core.Funseeker.functions)
        st
    in
    let fs_counts = Metrics.compare_sets ~truth ~found:fs in
    Tables.Table2.record acc.table2 ~compiler ~suite ~config:4 fs_counts;
    Tables.Table3.record acc.table3 ~arch ~suite ~tool:"funseeker" fs_counts;
    if opts.timing then
      Tables.Table3.record_time acc.table3 ~arch ~suite ~tool:"funseeker" fs_time;
    let ida, ida_time = timed Cet_baselines.Ida_like.analyze_st st in
    Tables.Table3.record acc.table3 ~arch ~suite ~tool:"ida"
      (Metrics.compare_sets ~truth ~found:ida);
    let ghidra, ghidra_time = timed Cet_baselines.Ghidra_like.analyze_st st in
    Tables.Table3.record acc.table3 ~arch ~suite ~tool:"ghidra"
      (Metrics.compare_sets ~truth ~found:ghidra);
    let fetch, fetch_time = timed Cet_baselines.Fetch.analyze_st st in
    Tables.Table3.record acc.table3 ~arch ~suite ~tool:"fetch"
      (Metrics.compare_sets ~truth ~found:fetch);
    if opts.timing then
      Tables.Table3.record_time acc.table3 ~arch ~suite ~tool:"fetch" fetch_time;
    (* Error forensics (opt-in): rerun the full configuration with decision
       provenance, join the identified set against ground truth, and bucket
       every false positive / false negative by root cause, keyed by this
       binary's compilation configuration. *)
    let (), triage_time =
      timed
        (fun () ->
          if opts.triage then begin
            let prov = Core.Provenance.create () in
            ignore (Core.Funseeker.analyze_st ~prov st : Core.Funseeker.result);
            let pads = Substrate.landing_pads st in
            List.iter
              (fun (_addr, b) ->
                Tables.Triage.record acc.triage ~config:config_s
                  ~bucket:(Core.Provenance.bucket_name b))
              (Core.Provenance.errors prov ~truth ~pads)
          end)
        ()
    in
    (* The per-binary profile record: identity, decode volume from the
       substrate facts, and the phase split.
       Under [timing = false] every clock figure renders as zero so the
       JSONL row set is byte-identical across [~jobs]. *)
    let acc =
      if not opts.profile then acc
      else begin
        let fx = Substrate.facts st in
        let total_time = Unix.gettimeofday () -. bin_t0 in
        let ms t = if opts.timing then t *. 1e3 else 0.0 in
        let p =
          {
            p_suite = suite;
            p_program = bin.program;
            p_config = config_s;
            p_arch = arch;
            p_digest = content_digest bin.stripped;
            p_text_bytes = fx.Substrate.f_size;
            p_insns = fx.Substrate.f_insns;
            p_resyncs = fx.Substrate.f_resync_errors;
            p_truth = List.length truth;
            p_status = "ok";
            p_total_ms = ms total_time;
            p_phases =
              List.combine profile_phase_names
                (List.map ms
                   [
                     study_time; configs_time; fs_time; ida_time; ghidra_time;
                     fetch_time; triage_time;
                   ]);
            p_error = None;
            p_backtrace = None;
          }
        in
        { acc with profiles = [ p ] }
      end
    in
    { acc with binaries = acc.binaries + 1; functions = acc.functions + List.length truth }
  in
  (* Fault isolation: every binary is evaluated into a fresh accumulator,
     so a mid-flight exception cannot leave partial rows behind.  The
     analyses are deterministic, so a failure is final: the binary is
     quarantined (or, fail-fast, re-raised) without a retry. *)
  let analyze (bin : Dataset.binary) =
    let work () =
      (match opts.fault with
      | Some is_faulty when is_faulty bin ->
        failwith (Printf.sprintf "injected fault: %s/%s" bin.suite bin.program)
      | _ -> ());
      if Cet_telemetry.Span.enabled () then
        Cet_telemetry.Span.with_ ~name:"harness.binary" (fun () -> eval_binary_impl bin)
      else eval_binary_impl bin
    in
    match opts.max_seconds with
    | None -> work ()
    | Some seconds -> Cet_util.Deadline.with_ ~seconds work
  in
  (* A quarantined binary's row: identity, status and the error, with the
     analysis-derived figures zeroed (the failed evaluation's partial
     work is discarded with its accumulator). *)
  let quarantined (bin : Dataset.binary) e bt =
    {
      p_suite = bin.suite;
      p_program = bin.program;
      p_config = Options.to_string bin.config;
      p_arch = arch_name bin.config.Options.arch;
      (* The bytes exist even when the analysis failed: content identity
         is a property of the input, not of the outcome, so cross-run
         joins still see the row. *)
      p_digest = content_digest bin.stripped;
      p_text_bytes = 0;
      p_insns = 0;
      p_resyncs = 0;
      p_truth = 0;
      p_status = "quarantined";
      p_total_ms = 0.0;
      p_phases = List.map (fun n -> (n, 0.0)) profile_phase_names;
      p_error = Some (Printexc.to_string e);
      p_backtrace = Some (Printexc.raw_backtrace_to_string bt);
    }
  in
  let wq = scheduler ?jobs opts in
  let eval_binary (bin : Dataset.binary) =
    let r =
      match analyze bin with
      | r ->
        Cet_telemetry.Registry.count "harness.binaries";
        r
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if not opts.keep_going then Printexc.raise_with_backtrace e bt;
        Cet_telemetry.Registry.count "harness.quarantined";
        let row = quarantined bin e bt in
        {
          (empty_results ()) with
          failures = [ row ];
          profiles = (if opts.profile then [ row ] else []);
        }
    in
    let seen = Atomic.fetch_and_add progress 1 + 1 in
    if opts.progress then show_progress seen;
    r
  in
  (* One plan item is one binary. *)
  let results =
    merge_results
      (Work_queue.map wq (Dataset.length plan) (fun k ->
           eval_binary (List.hd (Dataset.nth plan k))))
  in
  if Cet_telemetry.Registry.enabled () then begin
    let s = Work_queue.stats wq in
    Cet_telemetry.Registry.gauge_set "scheduler.max_pending"
      (float_of_int s.Work_queue.s_max_pending)
  end;
  (* Exact completion line, printed once and only when something ran (an
     empty plan must not leave a stray newline on stderr). *)
  let done_count = Atomic.get progress in
  if opts.progress && done_count > 0 then begin
    let elapsed = Unix.gettimeofday () -. t0 in
    Printf.eprintf
      "\r  %d/%d binaries in %.1fs (%.1f bin/s), %d quarantined          \n"
      done_count total_binaries elapsed
      (if elapsed > 0.0 then float_of_int done_count /. elapsed else 0.0)
      (List.length results.failures);
    flush stderr
  end;
  if Cet_telemetry.Registry.enabled () then begin
    let elapsed = Unix.gettimeofday () -. t0 in
    Cet_telemetry.Registry.gauge_set "harness.wall_s" elapsed;
    Cet_telemetry.Registry.gauge_set "harness.binaries_per_sec"
      (if elapsed > 0.0 then float_of_int done_count /. elapsed else 0.0)
  end;
  results

(* Quarantine rows carry the failing binary's backtrace, so a run records
   backtraces, and hands the caller's setting back however it ends. *)
let run ?profiles ?configs ?jobs opts =
  let saved = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace saved)
    (fun () -> run_recording ?profiles ?configs ?jobs opts)

type manual_endbr_report = { full : Metrics.counts; manual : Metrics.counts }

(* The per-binary unit of the SSVI ablation: FunSeeker's counts plus the
   size of the deduplicated ground-truth set (so [snd] always equals
   [tp + fn] of [fst] — duplicate truth entries must not inflate it). *)
let manual_endbr_binary (bin : Dataset.binary) =
  let truth = truth_addrs bin in
  let r = Core.Funseeker.analyze_st (Substrate.of_bytes bin.Dataset.stripped) in
  (Metrics.compare_sets ~truth ~found:r.Core.Funseeker.functions, List.length truth)

(* The side experiments below fan their items out over a plain pool and
   fold the results in index order, so their output is independent of
   [jobs]. *)
let pool ?jobs () = Work_queue.create (Work_queue.config ?jobs ())

let manual_endbr_ablation ?jobs (opts : options) =
  let profile = Cet_corpus.Profile.scaled (opts.scale /. 2.0) Cet_corpus.Profile.coreutils in
  let wq = pool ?jobs () in
  let run_with cf =
    let configs =
      List.map
        (fun (c : Options.t) -> { c with Options.cf_protection = cf })
        Options.all_grid
    in
    let plan = Dataset.plan ~profiles:[ profile ] ~configs ~seed:opts.seed ~scale:1.0 () in
    Array.fold_left Metrics.add Metrics.empty
      (Work_queue.map wq (Dataset.length plan) (fun k ->
           List.fold_left
             (fun acc bin -> Metrics.add acc (fst (manual_endbr_binary bin)))
             Metrics.empty (Dataset.nth plan k)))
  in
  { full = run_with Options.Cf_full; manual = run_with Options.Cf_manual }

let render_manual_endbr r =
  Printf.sprintf
    "MANUAL-ENDBR ABLATION (SSVI): FunSeeker on -mmanual-endbr binaries\n\
    \  -fcf-protection=full : precision %7.3f%%  recall %7.3f%%\n\
    \  -mmanual-endbr       : precision %7.3f%%  recall %7.3f%%\n\
    \  recall impact: %.3f points (paper predicts a marginal loss, <= ~1.24%%)\n"
    (Metrics.precision r.full) (Metrics.recall r.full) (Metrics.precision r.manual)
    (Metrics.recall r.manual)
    (Metrics.recall r.full -. Metrics.recall r.manual)

(* The whole-tool rows of [speed]: Table3 tool key, rendered label, and
   the tool.  "funseeker" and "fetch" are the Table III tools under their
   Table III keys; the others are the DESIGN.md §5 ablations. *)
let speed_rows =
  let fs ?anchored config st =
    (Core.Funseeker.analyze_st ~config ?anchored st).Core.Funseeker.functions
  in
  [
    ("funseeker-1", "FunSeeker (1) E+C", fs Core.Funseeker.config1);
    ("funseeker-2", "FunSeeker (2) E'+C", fs Core.Funseeker.config2);
    ("funseeker-3", "FunSeeker (3) E'+C+J", fs Core.Funseeker.config3);
    ("funseeker", "FunSeeker (4) E'+C+J'", fs Core.Funseeker.config4);
    ( "funseeker-anchored",
      "FunSeeker (4), anchored sweep",
      fs ~anchored:true Core.Funseeker.config4 );
    ("fetch", "FETCH-like", Cet_baselines.Fetch.analyze_st);
  ]

let speed ?profiles ?jobs (opts : options) =
  let plan = Dataset.plan ?profiles ~seed:opts.seed ~scale:opts.scale () in
  let item k =
    let acc = Tables.Table3.create () in
    List.iter
      (fun (bin : Dataset.binary) ->
        let truth = truth_addrs bin in
        let arch = arch_name bin.config.Options.arch and suite = bin.suite in
        List.iter
          (fun (tool, _, run) ->
            (* A fresh substrate per row: every timed run parses and
               disassembles the binary itself, as a standalone tool does. *)
            let found, dt = timed (fun bytes -> run (Substrate.of_bytes bytes)) bin.stripped in
            Tables.Table3.record acc ~arch ~suite ~tool (Metrics.compare_sets ~truth ~found);
            if opts.timing then Tables.Table3.record_time acc ~arch ~suite ~tool dt)
          speed_rows)
      (Dataset.nth plan k);
    acc
  in
  let t = Tables.Table3.create () in
  Array.iter (Tables.Table3.merge t) (Work_queue.map (pool ?jobs ()) (Dataset.length plan) item);
  t

let render_speed t =
  let ms tool = Tables.Table3.mean_time t ~tool *. 1000.0 in
  let row (tool, label, _) =
    let c = Tables.Table3.totals t ~tool in
    Printf.sprintf "  %-30s %8.3f %7.3f %10.3f" label (Metrics.precision c) (Metrics.recall c)
      (ms tool)
  in
  let ratio =
    if ms "funseeker" > 0.0 then
      [
        Printf.sprintf "  ratio (SSV-D): FETCH-like / FunSeeker (4) = %.1fx per binary (paper: 5.1x)"
          (ms "fetch" /. ms "funseeker");
      ]
    else []
  in
  String.concat "\n"
    ([
       "SPEED (SSV-D): whole-tool runs, each parsing and disassembling the binary itself";
       Printf.sprintf "  %-30s %8s %7s %10s" "" "Prec." "Rec." "ms/binary";
     ]
    @ List.map row speed_rows @ ratio @ [ "" ])

type related_work_report = {
  byteweight_in : Metrics.counts;
  byteweight_ood : Metrics.counts;
  nucleus_c : Metrics.counts;
  nucleus_cpp : Metrics.counts;
  funseeker_ref : Metrics.counts;
}

let related_work ?jobs (opts : options) =
  let profile =
    Cet_corpus.Profile.scaled (opts.scale /. 2.0) Cet_corpus.Profile.coreutils
  in
  let wq = pool ?jobs () in
  let build config index =
    let ir = Cet_corpus.Generator.program ~seed:opts.seed ~profile ~index in
    let res = Cet_compiler.Link.link config ir in
    ( Reader.read (Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image),
      List.sort_uniq Int.compare (List.map snd res.Cet_compiler.Link.truth) )
  in
  let n = max 4 profile.Cet_corpus.Profile.programs in
  let train_n = n / 2 in
  let gcc = Options.default in
  let clang_x86 =
    { Options.default with Options.compiler = Options.Clang; arch = Cet_x86.Arch.X86 }
  in
  let model =
    Cet_baselines.Byteweight.train
      (Array.to_list (Work_queue.map wq train_n (fun i -> build gcc i)))
  in
  let score tool configs =
    let work =
      Array.of_list
        (List.concat_map
           (fun c -> List.init (n - train_n) (fun i -> (c, train_n + i)))
           configs)
    in
    Array.fold_left Metrics.add Metrics.empty
      (Work_queue.map wq (Array.length work) (fun k ->
           let config, index = work.(k) in
           let reader, truth = build config index in
           Metrics.compare_sets ~truth ~found:(tool (Substrate.create reader))))
  in
  let byteweight st = Cet_baselines.Byteweight.classify_st model st in
  let cpp_profile =
    {
      (Cet_corpus.Profile.scaled (opts.scale /. 4.0) Cet_corpus.Profile.spec) with
      Cet_corpus.Profile.lang_cpp_fraction = 1.0;
    }
  in
  let nucleus_on profile =
    Array.fold_left Metrics.add Metrics.empty
      (Work_queue.map wq profile.Cet_corpus.Profile.programs (fun index ->
           let ir = Cet_corpus.Generator.program ~seed:opts.seed ~profile ~index in
           let res = Cet_compiler.Link.link gcc ir in
           let st =
             Substrate.of_bytes (Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image)
           in
           let truth = List.sort_uniq Int.compare (List.map snd res.Cet_compiler.Link.truth) in
           Metrics.compare_sets ~truth ~found:(Cet_baselines.Nucleus_like.analyze_st st)))
  in
  {
    byteweight_in = score byteweight [ gcc ];
    byteweight_ood = score byteweight [ clang_x86 ];
    nucleus_c = nucleus_on profile;
    nucleus_cpp = nucleus_on cpp_profile;
    funseeker_ref =
      score (fun st -> (Core.Funseeker.analyze_st st).Core.Funseeker.functions) [ gcc; clang_x86 ];
  }

let render_related_work r =
  let line label (c : Metrics.counts) =
    Printf.sprintf "  %-42s precision %7.3f%%  recall %7.3f%%" label
      (Metrics.precision c) (Metrics.recall c)
  in
  String.concat "\n"
    [
      "RELATED-WORK COMPARATORS (SSVII-B)";
      line "ByteWeight-like, in-distribution (gcc/x64)" r.byteweight_in;
      line "ByteWeight-like, cross-compiler (clang/x86)" r.byteweight_ood;
      line "Nucleus-like, C binaries" r.nucleus_c;
      line "Nucleus-like, C++ binaries (landing pads)" r.nucleus_cpp;
      line "FunSeeker, same test set (no training)" r.funseeker_ref;
      "";
    ]

type inline_data_report = {
  clean_linear : Metrics.counts;
  clean_anchored : Metrics.counts;
  dirty_linear : Metrics.counts;
  dirty_anchored : Metrics.counts;
  dirty_resyncs : int;
}

let inline_data ?jobs (opts : options) =
  let profile =
    {
      (Cet_corpus.Profile.scaled (opts.scale /. 2.0) Cet_corpus.Profile.binutils) with
      Cet_corpus.Profile.p_switch = 0.3;
    }
  in
  let wq = pool ?jobs () in
  let run inline =
    let config = { Options.default with Options.jump_tables_in_text = inline } in
    Array.fold_left
      (fun (lin, anc, resyncs) (lin', anc', resyncs') ->
        (Metrics.add lin lin', Metrics.add anc anc', resyncs + resyncs'))
      (Metrics.empty, Metrics.empty, 0)
      (Work_queue.map wq profile.Cet_corpus.Profile.programs (fun index ->
           let ir = Cet_corpus.Generator.program ~seed:opts.seed ~profile ~index in
           let res = Cet_compiler.Link.link config ir in
           let st =
             Substrate.of_bytes (Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image)
           in
           let truth =
             List.sort_uniq Int.compare (List.map snd res.Cet_compiler.Link.truth)
           in
           let l = Core.Funseeker.analyze_st st in
           let a = Core.Funseeker.analyze_st ~anchored:true st in
           ( Metrics.compare_sets ~truth ~found:l.Core.Funseeker.functions,
             Metrics.compare_sets ~truth ~found:a.Core.Funseeker.functions,
             l.Core.Funseeker.resync_errors )))
  in
  let clean_linear, clean_anchored, _ = run false in
  let dirty_linear, dirty_anchored, dirty_resyncs = run true in
  { clean_linear; clean_anchored; dirty_linear; dirty_anchored; dirty_resyncs }

let render_inline_data r =
  let line label (c : Metrics.counts) =
    Printf.sprintf "  %-40s precision %7.3f%%  recall %7.3f%%" label
      (Metrics.precision c) (Metrics.recall c)
  in
  String.concat "\n"
    [
      "INLINE DATA IN .TEXT (SSVI): linear vs end-branch-anchored sweep";
      line "clean binaries, linear sweep" r.clean_linear;
      line "clean binaries, anchored sweep" r.clean_anchored;
      Printf.sprintf "  dirty binaries: %d linear-sweep resynchronisations" r.dirty_resyncs;
      line "dirty binaries, linear sweep" r.dirty_linear;
      line "dirty binaries, anchored sweep" r.dirty_anchored;
      "";
    ]

type arm_report = {
  arm_bti : Metrics.counts;
  arm_legacy : Metrics.counts;
  arm_binaries : int;
}

let arm_bti ?jobs (opts : options) =
  let items =
    Array.of_list
      (List.concat_map
         (fun profile ->
           let profile = Cet_corpus.Profile.scaled (opts.scale /. 2.0) profile in
           List.init profile.Cet_corpus.Profile.programs (fun index -> (profile, index)))
         Cet_corpus.Profile.all)
  in
  let bti, legacy, n =
    Array.fold_left
      (fun (b, l, n) (b', l', n') -> (Metrics.add b b', Metrics.add l l', n + n'))
      (Metrics.empty, Metrics.empty, 0)
      (Work_queue.map (pool ?jobs ()) (Array.length items) (fun k ->
           let profile, index = items.(k) in
           let ir = Cet_corpus.Generator.program ~seed:opts.seed ~profile ~index in
           let eval bti =
             let res =
               Cet_arm64.A64_compile.compile { Cet_arm64.A64_compile.bti; tail_calls = true } ir
             in
             let reader =
               Reader.read (Cet_elf.Writer.write ~strip:true res.Cet_arm64.A64_compile.image)
             in
             let truth =
               List.sort_uniq Int.compare (List.map snd res.Cet_arm64.A64_compile.truth)
             in
             let r = Cet_arm64.Bti_seeker.analyze reader in
             Metrics.compare_sets ~truth ~found:r.Cet_arm64.Bti_seeker.functions
           in
           (eval true, eval false, 2)))
  in
  { arm_bti = bti; arm_legacy = legacy; arm_binaries = n }

let render_arm r =
  String.concat "\n"
    [
      Printf.sprintf "ARM BTI EXTENSION (SSVI): %d aarch64 binaries" r.arm_binaries;
      Printf.sprintf "  -mbranch-protection=bti : precision %7.3f%%  recall %7.3f%%"
        (Metrics.precision r.arm_bti) (Metrics.recall r.arm_bti);
      Printf.sprintf "  unprotected (control)   : precision %7.3f%%  recall %7.3f%%"
        (Metrics.precision r.arm_legacy) (Metrics.recall r.arm_legacy);
      "";
    ]

let render_all r =
  String.concat "\n"
    [
      Printf.sprintf "dataset: %d binaries, %d ground-truth functions\n" r.binaries
        r.functions;
      Tables.Table1.render r.table1;
      Tables.Fig3.render r.fig3;
      Tables.Table2.render r.table2;
      Tables.Table3.render r.table3;
    ]

let render_failures r =
  match r.failures with
  | [] -> ""
  | fs ->
    let line p =
      Printf.sprintf "  %s/%s [%s]: %s" p.p_suite p.p_program p.p_config
        (Option.value ~default:"" p.p_error)
    in
    Printf.sprintf "QUARANTINED BINARIES (%d):\n%s\n" (List.length fs)
      (String.concat "\n" (List.map line fs))

let top_slow r k =
  if k <= 0 then []
  else
    (* Stable on ties so equal-cost rows keep plan order. *)
    let sorted =
      List.stable_sort (fun a b -> compare b.p_total_ms a.p_total_ms) r.profiles
    in
    List.filteri (fun i _ -> i < k) sorted

let render_top_slow r k =
  match top_slow r k with
  | [] -> ""
  | ps ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "SLOWEST BINARIES (top %d of %d profiled)\n" (List.length ps)
         (List.length r.profiles));
    Buffer.add_string buf
      (Printf.sprintf "  %-34s %-22s %10s %9s %8s  %s\n" "binary" "config"
         "total(ms)" "insns" "resyncs" "status");
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "  %-34s %-22s %10.3f %9d %8d  %s\n"
             (p.p_suite ^ "/" ^ p.p_program)
             p.p_config p.p_total_ms p.p_insns p.p_resyncs p.p_status))
      ps;
    Buffer.contents buf
