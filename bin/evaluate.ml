(* evaluate — regenerate every table and figure of the paper.

   Usage:
     evaluate all                 # all tables + figure
     evaluate table1|fig3|table2|table3
     evaluate manual-endbr|extras|inline-data|arm   # the §VI/§VII-B side experiments
     evaluate speed               # §V-D whole-tool timings + the DESIGN.md §5 ablations
     evaluate --scale 0.25 --seed 2022 --jobs 4 all
     evaluate --stats --trace-out trace.jsonl all   # telemetry report + JSON-lines trace
     evaluate --trace-out t.json --trace-format chrome all   # Perfetto-openable trace
     evaluate --max-seconds 5 --quarantine-out q.jsonl all   # fault-isolated run
     evaluate --triage --triage-out triage.jsonl all         # FP/FN root-cause forensics
     evaluate --profile-out p.jsonl --top-slow 10 all        # per-binary profiles
     evaluate --slo "funseeker:p99<=50ms" all                # latency objectives
     evaluate --metrics-out m.prom all                       # OpenMetrics exposition
     evaluate --manifest-out run.jsonl all                   # content-hashed run manifest

   Exit codes: 0 on success, 1 when binaries were quarantined, 2 on usage
   errors, 3 when a --slo objective was breached. *)

open Cmdliner
module Telemetry = Cet_telemetry.Registry
module Journal = Cet_telemetry.Journal
module Slo = Cet_telemetry.Slo
module Report = Cet_telemetry.Report

let table_experiments = [ "all"; "table1"; "fig3"; "table2"; "table3" ]
let side_experiments = [ "manual-endbr"; "extras"; "inline-data"; "arm"; "speed" ]

let run_eval what seed scale progress jobs no_timing stats trace_out trace_format
    max_seconds quarantine_out fail_fast inject_fault triage triage_out
    profile_out top_slow slo metrics_out manifest_out chaos run_seconds =
  if jobs <= 0 then begin
    Printf.eprintf "evaluate: --jobs must be a positive worker count (got %d)\n" jobs;
    exit 2
  end;
  if scale <= 0.0 then begin
    Printf.eprintf "evaluate: --scale must be positive (got %g)\n" scale;
    exit 2
  end;
  (match max_seconds with
  | Some s when s <= 0.0 ->
    Printf.eprintf "evaluate: --max-seconds must be positive (got %g)\n" s;
    exit 2
  | _ -> ());
  (match inject_fault with
  | Some n when n <= 0 ->
    Printf.eprintf "evaluate: --inject-fault must be a positive modulus (got %d)\n" n;
    exit 2
  | _ -> ());
  (match run_seconds with
  | Some s when s <= 0.0 ->
    Printf.eprintf "evaluate: --run-seconds must be positive (got %g)\n" s;
    exit 2
  | _ -> ());
  if top_slow < 0 then begin
    Printf.eprintf "evaluate: --top-slow must be non-negative (got %d)\n" top_slow;
    exit 2
  end;
  if not (List.mem what table_experiments || List.mem what side_experiments) then begin
    Printf.eprintf "evaluate: unknown experiment %S (try %s)\n" what
      (String.concat "|" (table_experiments @ side_experiments));
    exit 2
  end;
  (* The side experiments read only --seed, --scale and --jobs (speed also
     --no-timing); a flag that only the table run reads is a usage error
     on them, caught before any report file is opened. *)
  if List.mem what side_experiments then begin
    let table_only =
      [
        ("--progress", progress);
        ("--max-seconds", max_seconds <> None);
        ("--quarantine-out", quarantine_out <> None);
        ("--fail-fast", fail_fast);
        ("--inject-fault", inject_fault <> None);
        ("--triage", triage);
        ("--triage-out", triage_out <> None);
        ("--profile-out", profile_out <> None);
        ("--top-slow", top_slow <> 0);
        ("--slo", slo <> []);
        ("--manifest-out", manifest_out <> None);
        ("--chaos", chaos <> None);
        ("--run-seconds", run_seconds <> None);
      ]
    in
    match List.find_opt snd table_only with
    | Some (flag, _) ->
      Printf.eprintf "evaluate: %s does not apply to the %s experiment (only to %s)\n" flag
        what (String.concat "|" table_experiments);
      exit 2
    | None -> ()
  end;
  (* A malformed objective is a usage error before the run, not a surprise
     after it. *)
  let objectives =
    List.map
      (fun spec ->
        match Slo.parse spec with
        | Ok o -> o
        | Error msg ->
          Printf.eprintf "evaluate: bad --slo objective %s\n" msg;
          exit 2)
      slo
  in
  (* Open the report files up front so an unwritable path is a usage
     error before hours of evaluation, not after. *)
  let open_report flag = function
    | None -> None
    | Some path -> (
      try Some (path, open_out path)
      with Sys_error msg ->
        Printf.eprintf "evaluate: cannot open %s file: %s\n" flag msg;
        exit 2)
  in
  let quarantine_oc = open_report "--quarantine-out" quarantine_out in
  let triage_oc = open_report "--triage-out" triage_out in
  let profile_oc = open_report "--profile-out" profile_out in
  let metrics_oc = open_report "--metrics-out" metrics_out in
  let manifest_oc = open_report "--manifest-out" manifest_out in
  (* --triage-out implies the forensics pass itself. *)
  let triage = triage || triage_out <> None in
  (* The manifest's per-binary rows and its run digest come from the
     profile rows, so --manifest-out implies profiling. *)
  let profile = profile_oc <> None || top_slow > 0 || manifest_oc <> None in
  if stats || trace_out <> None || metrics_oc <> None then
    Telemetry.enable ~trace:(trace_out <> None) ();
  (* The flight recorder feeds the quarantine black boxes and the trace's
     instant markers; bridge the lower layers' observation hooks to it. *)
  if quarantine_oc <> None || trace_out <> None then begin
    Journal.enable ();
    Cet_util.Deadline.set_observer
      (Some
         (fun what slack_ns ->
           if Journal.enabled () then
             Journal.record ~v:slack_ns Journal.Deadline_slack what));
    Cet_util.Diag.Collector.set_observer
      (Some
         (fun d ->
           if Journal.enabled () then
             Journal.record Journal.Diag
               (d.Cet_util.Diag.domain ^ "/" ^ d.Cet_util.Diag.code)))
  end;
  if objectives <> [] then Slo.enable ();
  let fault =
    match inject_fault with
    | None -> None
    | Some n ->
      Some
        (fun (b : Cet_corpus.Dataset.binary) ->
          Hashtbl.hash (b.suite, b.program, Cet_compiler.Options.to_string b.config)
          mod n
          = 0)
  in
  let opts =
    {
      Cet_eval.Harness.seed;
      scale;
      progress;
      timing = not no_timing;
      max_seconds;
      keep_going = not fail_fast;
      fault;
      triage;
      profile;
      chaos;
      run_seconds;
      shed_fraction = Cet_eval.Harness.default_options.Cet_eval.Harness.shed_fraction;
      breaker = Cet_eval.Harness.default_options.Cet_eval.Harness.breaker;
    }
  in
  let t0 = Unix.gettimeofday () in
  let status = ref 0 in
  (* Captured from the results branch for the metrics info labels below. *)
  let results_digest = ref None in
  let out =
    match what with
    | "manual-endbr" ->
      Cet_eval.Harness.render_manual_endbr
        (Cet_eval.Harness.manual_endbr_ablation ~jobs opts)
    | "extras" ->
      Cet_eval.Harness.render_related_work (Cet_eval.Harness.related_work ~jobs opts)
    | "inline-data" ->
      Cet_eval.Harness.render_inline_data (Cet_eval.Harness.inline_data ~jobs opts)
    | "arm" -> Cet_eval.Harness.render_arm (Cet_eval.Harness.arm_bti ~jobs opts)
    | "speed" -> Cet_eval.Harness.render_speed (Cet_eval.Harness.speed ~jobs opts)
    | _ ->
      (* one of [table_experiments], checked above *)
      let results = Cet_eval.Harness.run ~jobs opts in
      if results.Cet_eval.Harness.failures <> [] then begin
        status := 1;
        prerr_string (Cet_eval.Harness.render_failures results)
      end;
      (match quarantine_oc with
      | None -> ()
      | Some (path, oc) ->
        Cet_eval.Harness.write_quarantine oc results;
        Printf.eprintf "quarantine report written to %s (%d entries)\n" path
          (List.length results.Cet_eval.Harness.failures));
      (match triage_oc with
      | None -> ()
      | Some (path, oc) ->
        Cet_eval.Tables.Triage.write_jsonl oc results.Cet_eval.Harness.triage;
        Printf.eprintf "triage report written to %s (%d errors)\n" path
          (Cet_eval.Tables.Triage.total results.Cet_eval.Harness.triage));
      (match profile_oc with
      | None -> ()
      | Some (path, oc) ->
        Cet_eval.Harness.write_profiles oc results;
        Printf.eprintf "profile report written to %s (%d rows)\n" path
          (List.length results.Cet_eval.Harness.profiles));
      if profile then
        results_digest := Some (Cet_eval.Harness.run_digest results);
      (match manifest_oc with
      | None -> ()
      | Some (path, oc) ->
        let meta =
          {
            Cet_eval.Harness.m_experiment = what;
            m_jobs = jobs;
            m_chaos = chaos;
            m_profile_art = profile_out;
            m_quarantine_art = quarantine_out;
            m_trace_art = trace_out;
            m_metrics_art = metrics_out;
          }
        in
        Cet_eval.Harness.write_manifest oc ~meta opts results;
        Printf.eprintf "run manifest written to %s (digest %s)\n" path
          (Cet_eval.Harness.run_digest results));
      let base =
        match what with
        | "all" -> Cet_eval.Harness.render_all results
        | "table1" -> Cet_eval.Tables.Table1.render results.table1
        | "fig3" -> Cet_eval.Tables.Fig3.render results.fig3
        | "table2" -> Cet_eval.Tables.Table2.render results.table2
        | _ -> Cet_eval.Tables.Table3.render results.table3
      in
      let base =
        if triage then
          base ^ "\n" ^ Cet_eval.Tables.Triage.render results.Cet_eval.Harness.triage
        else base
      in
      if top_slow > 0 then
        base ^ "\n" ^ Cet_eval.Harness.render_top_slow results top_slow
      else base
  in
  Option.iter (fun (_, oc) -> close_out oc) quarantine_oc;
  Option.iter (fun (_, oc) -> close_out oc) triage_oc;
  Option.iter (fun (_, oc) -> close_out oc) profile_oc;
  Option.iter (fun (_, oc) -> close_out oc) manifest_oc;
  let wall = Unix.gettimeofday () -. t0 in
  print_string out;
  if stats then begin
    print_newline ();
    print_string (Report.render ~timing:(not no_timing) ());
    (* Coverage of the instrumentation: with --jobs 1 the span self-time
       sum tracks wall-clock directly; with more workers it tracks the
       summed busy time instead. *)
    if not no_timing then
      Printf.printf
        "telemetry: wall-clock %.3f s (jobs=%d); spans cover %.3f s of worker busy time\n"
        wall jobs
        (float_of_int (Report.self_total_ns ()) /. 1e9)
  end;
  (match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let write = match trace_format with
      | "chrome" -> Report.write_trace_chrome
      | _ -> Report.write_trace
    in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
    Printf.eprintf "trace written to %s (%s)\n" path trace_format);
  (match metrics_oc with
  | None -> ()
  | Some (path, oc) ->
    (* Run identity rides along as a cet_run_info gauge so a scrape can
       be joined back to its manifest by digest. *)
    let info =
      (match !results_digest with Some d -> [ ("digest", d) ] | None -> [])
      @ [ ("seed", string_of_int seed) ]
    in
    Report.write_openmetrics ~info oc;
    close_out oc;
    Printf.eprintf "metrics written to %s\n" path);
  (* Objectives are checked over everything observed this run; any breach
     (including an objective nothing matched) trumps the other statuses —
     a gated pipeline must see the gate fail. *)
  if objectives <> [] then begin
    let verdicts = Slo.check objectives in
    prerr_string (Slo.render verdicts);
    if Slo.breached verdicts then status := 3
  end;
  !status

let what =
  let doc =
    "Which experiment to regenerate: all, table1, fig3, table2, table3, manual-endbr, \
     extras, inline-data, arm, speed.  The side experiments (manual-endbr to speed) \
     read only --seed, --scale and --jobs (speed also --no-timing), and the \
     telemetry flags."
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)

let seed =
  let doc = "Dataset seed (the paper-equivalent corpus is deterministic in it)." in
  Arg.(value & opt int 2022 & info [ "seed" ] ~doc)

let scale =
  let doc = "Corpus scale factor: 1.0 reproduces the paper's suite sizes. Must be positive." in
  Arg.(value & opt float 0.25 & info [ "scale" ] ~doc)

let progress =
  let doc = "Print a live done/total progress line (with EWMA-smoothed rate and ETA) to stderr." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the evaluation (default: the hardware's recommended \
     domain count).  Results are byte-identical to --jobs 1.  Must be positive."
  in
  Arg.(value & opt int (Domain.recommended_domain_count ()) & info [ "j"; "jobs" ] ~doc)

let no_timing =
  let doc =
    "Skip the wall-clock measurements behind Table III's Time(ms) columns \
     and the speed experiment's ms/binary column (they become 0.000, and the \
     ratio lines are left out), making the output fully deterministic in --seed. \
     Also zeroes the time fields of the --stats report and of --profile-out rows."
  in
  Arg.(value & flag & info [ "no-timing" ] ~doc)

let stats =
  let doc =
    "Enable the telemetry registry and print a phase-time breakdown (spans, \
     counters, per-worker throughput, GC) after the tables."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_out =
  let doc =
    "Write a JSON-lines trace (one object per completed span, plus per-phase \
     and counter summaries) to $(docv).  Implies telemetry recording (and the \
     flight recorder, for instant failure markers in chrome format)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_format =
  let doc =
    "Trace file format for --trace-out: $(b,jsonl) (one object per span, the \
     default) or $(b,chrome) (Chrome trace-event JSON array, openable in \
     chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (enum [ ("jsonl", "jsonl"); ("chrome", "chrome") ]) "jsonl"
       & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let max_seconds =
  let doc =
    "Per-binary wall-clock budget in seconds.  A binary that exceeds it is \
     quarantined (its partial results are discarded) and the run continues. \
     Must be positive."
  in
  Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"SECONDS" ~doc)

let quarantine_out =
  let doc =
    "Write quarantined binaries as JSON lines (suite, program, config, \
     attempts, error, backtrace, and the worker's flight-recorder black box) \
     to $(docv).  The file is opened before the run, so an unwritable path \
     fails fast with exit code 2.  Implies the flight recorder."
  in
  Arg.(value & opt (some string) None & info [ "quarantine-out" ] ~docv:"FILE" ~doc)

let fail_fast =
  let doc =
    "Abort on the first failing binary, re-raising its exception (the default \
     --keep-going quarantines failures and continues)."
  in
  let keep_doc = "Quarantine failing binaries and continue (the default)." in
  Arg.(
    value
    & vflag false
        [ (true, info [ "fail-fast" ] ~doc); (false, info [ "keep-going" ] ~doc:keep_doc) ])

let inject_fault =
  let doc =
    "Testing hook: deterministically fail every binary whose identity hash is \
     divisible by $(docv), exercising the quarantine path.  Must be positive."
  in
  Arg.(value & opt (some int) None & info [ "inject-fault" ] ~docv:"N" ~doc)

let triage =
  let doc =
    "Error forensics: rerun the full FunSeeker configuration with decision \
     provenance and append a root-cause triage table (false positives and \
     false negatives bucketed per compilation configuration) to the output."
  in
  Arg.(value & flag & info [ "triage" ] ~doc)

let triage_out =
  let doc =
    "Write the triage buckets as JSON lines (config, bucket, count) to \
     $(docv).  Implies --triage.  The file is opened before the run, so an \
     unwritable path fails fast with exit code 2."
  in
  Arg.(value & opt (some string) None & info [ "triage-out" ] ~docv:"FILE" ~doc)

let profile_out =
  let doc =
    "Write one JSON line per evaluated binary (identity, phase time split, \
     instructions decoded, resync errors, diag count, retry/quarantine \
     status) to $(docv).  Rows are in plan order; with --no-timing the file \
     is byte-identical across --jobs.  The file is opened before the run, so \
     an unwritable path fails fast with exit code 2."
  in
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let top_slow =
  let doc =
    "Append a table of the $(docv) slowest binaries (by total evaluation \
     time) to the output.  Implies per-binary profiling.  Must be \
     non-negative; 0 (the default) disables the table."
  in
  Arg.(value & opt int 0 & info [ "top-slow" ] ~docv:"K" ~doc)

let slo =
  let doc =
    "Check a latency objective at the end of the run, e.g. \
     $(b,funseeker:p99<=50ms) or $(b,binary/gcc-x64-O2-cet:max<=1s).  The \
     statistic is $(b,pNN) or $(b,max) over per-binary tool latencies; a \
     bare tool name aggregates every configuration, $(b,tool/config) matches \
     one.  Repeatable.  Any breached (or unmatched) objective makes the run \
     exit 3."
  in
  Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"OBJECTIVE" ~doc)

let metrics_out =
  let doc =
    "Write a Prometheus/OpenMetrics text exposition of every telemetry \
     counter, gauge and phase histogram to $(docv).  Implies telemetry \
     recording.  The file is opened before the run, so an unwritable path \
     fails fast with exit code 2."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let manifest_out =
  let doc =
    "Write a versioned run manifest (JSON lines: one run header with options, \
     corpus scale, scheduler knobs and a content digest of the whole run, \
     then one row per binary with the MD5 of its bytes and its analysis \
     verdict, plus pointers to the other report artifacts) to $(docv).  The \
     manifest is what $(b,cetstat) joins runs by.  Implies per-binary \
     profiling.  The file is opened before the run, so an unwritable path \
     fails fast with exit code 2."
  in
  Arg.(value & opt (some string) None & info [ "manifest-out" ] ~docv:"FILE" ~doc)

let chaos =
  let doc =
    "Chaos soak: inject seeded scheduler-level faults (worker stalls, \
     per-binary delays, transient dispatch faults retried by the scheduler). \
     Chaos changes timing and scheduling but never results \xe2\x80\x94 the tables are \
     byte-identical to a fault-free run whatever the seed."
  in
  Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED" ~doc)

let run_seconds =
  let doc =
    "Run-wide wall-clock budget in seconds, armed around every worker's whole \
     loop.  As the budget runs down, binaries are shed to the cheaper \
     anchored-only analysis (profile status $(b,shed)); once it expires, \
     remaining binaries are quarantined.  Distinct from --max-seconds, which \
     bounds a single binary.  Must be positive."
  in
  Arg.(value & opt (some float) None & info [ "run-seconds" ] ~docv:"SECONDS" ~doc)

let cmd =
  let doc = "regenerate the FunSeeker paper's tables and figures" in
  Cmd.v
    (Cmd.info "evaluate" ~doc ~exits:
       [
         Cmd.Exit.info 0 ~doc:"on success.";
         Cmd.Exit.info 1 ~doc:"when binaries were quarantined.";
         Cmd.Exit.info 2 ~doc:"on usage errors (bad flags, unknown experiment).";
         Cmd.Exit.info 3 ~doc:"when an --slo objective was breached.";
       ])
    Term.(
      const run_eval $ what $ seed $ scale $ progress $ jobs $ no_timing $ stats
      $ trace_out $ trace_format $ max_seconds $ quarantine_out $ fail_fast
      $ inject_fault $ triage $ triage_out $ profile_out $ top_slow $ slo
      $ metrics_out $ manifest_out $ chaos $ run_seconds)

let () = exit (Cmd.eval' cmd)
