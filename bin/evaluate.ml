(* evaluate — regenerate every table and figure of the paper.

   Usage:
     evaluate all                 # all tables + figure
     evaluate table1|fig3|table2|table3
     evaluate manual-endbr|extras|inline-data|arm   # the §VI/§VII-B side experiments
     evaluate speed               # §V-D whole-tool timings + the DESIGN.md §5 ablations
     evaluate --scale 0.25 --seed 2022 --jobs 4 all
     evaluate --stats --trace-out trace.jsonl all   # telemetry report + JSON-lines trace
     evaluate --max-seconds 5 --manifest-out run.jsonl all   # fault-isolated run
     evaluate --triage --triage-out triage.jsonl all         # FP/FN root-cause forensics
     evaluate --top-slow 10 all                              # the slowest binaries
     evaluate --metrics-out m.prom all                       # OpenMetrics exposition
     evaluate --manifest-out run.jsonl all                   # the run file: one row per binary

   `cetstat chrome trace.jsonl` converts a trace for chrome://tracing or
   Perfetto.

   Exit codes: 0 on success, 1 when binaries were quarantined, 2 on usage
   errors. *)

open Cmdliner
module Telemetry = Cet_telemetry.Registry
module Report = Cet_telemetry.Report

let table_experiments = [ "all"; "table1"; "fig3"; "table2"; "table3" ]
let side_experiments = [ "manual-endbr"; "extras"; "inline-data"; "arm"; "speed" ]

let usage fmt = Printf.ksprintf (fun m -> prerr_string ("evaluate: " ^ m ^ "\n"); exit 2) fmt

(* A budget or a scale: NaN and infinity are no more a size than zero. *)
let require_positive flag x =
  if not (Float.is_finite x) then usage "%s must be finite (got %g)" flag x;
  if x <= 0.0 then usage "%s must be positive (got %g)" flag x

let run_eval what seed scale progress jobs no_timing stats trace_out max_seconds
    fail_fast inject_fault triage triage_out top_slow metrics_out manifest_out =
  if jobs <= 0 then usage "--jobs must be a positive worker count (got %d)" jobs;
  require_positive "--scale" scale;
  Option.iter (require_positive "--max-seconds") max_seconds;
  (match inject_fault with
  | Some n when n <= 0 -> usage "--inject-fault must be a positive modulus (got %d)" n
  | _ -> ());
  if top_slow < 0 then usage "--top-slow must be non-negative (got %d)" top_slow;
  if not (List.mem what table_experiments || List.mem what side_experiments) then
    usage "unknown experiment %S (try %s)" what
      (String.concat "|" (table_experiments @ side_experiments));
  (* The side experiments read only --seed, --scale and --jobs (speed also
     --no-timing); a flag that only the table run reads is a usage error
     on them, caught before any report file is opened. *)
  if List.mem what side_experiments then begin
    let table_only =
      [
        ("--progress", progress);
        ("--max-seconds", max_seconds <> None);
        ("--fail-fast", fail_fast);
        ("--inject-fault", inject_fault <> None);
        ("--triage", triage);
        ("--triage-out", triage_out <> None);
        ("--top-slow", top_slow <> 0);
        ("--manifest-out", manifest_out <> None);
      ]
    in
    match List.find_opt snd table_only with
    | Some (flag, _) ->
      usage "%s does not apply to the %s experiment (only to %s)" flag what
        (String.concat "|" table_experiments)
    | None -> ()
  end;
  (* Open the report files up front so an unwritable path is a usage
     error before hours of evaluation, not after, and change none of them
     until all are open: on a failure the files already opened keep their
     bytes, and the ones created here are removed again. *)
  let opened = ref [] in
  let open_report flag =
    Option.map (fun path ->
        let fresh = not (Sys.file_exists path) in
        match open_out_gen [ Open_wronly; Open_creat ] 0o666 path with
        | oc ->
          opened := (oc, fresh, path) :: !opened;
          (path, oc)
        | exception Sys_error msg ->
          List.iter
            (fun (oc, fresh, path) ->
              close_out_noerr oc;
              if fresh then Sys.remove path)
            !opened;
          usage "cannot open %s file: %s" flag msg)
  in
  let triage_oc = open_report "--triage-out" triage_out in
  let metrics_oc = open_report "--metrics-out" metrics_out in
  let trace_oc = open_report "--trace-out" trace_out in
  let manifest_oc = open_report "--manifest-out" manifest_out in
  List.iter
    (fun (oc, _, _) ->
      let fd = Unix.descr_of_out_channel oc in
      if (Unix.fstat fd).Unix.st_kind = Unix.S_REG then Unix.ftruncate fd 0)
    !opened;
  (* --triage-out implies the forensics pass itself. *)
  let triage = triage || triage_out <> None in
  (* The manifest's rows are the profile rows, so --manifest-out implies
     profiling. *)
  let profile = top_slow > 0 || manifest_oc <> None in
  if stats || trace_oc <> None || metrics_oc <> None then
    Telemetry.enable ~trace:(trace_oc <> None) ();
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
      (match triage_oc with
      | None -> ()
      | Some (path, oc) ->
        Cet_eval.Tables.Triage.write_jsonl oc results.Cet_eval.Harness.triage;
        Printf.eprintf "triage report written to %s (%d errors)\n" path
          (Cet_eval.Tables.Triage.total results.Cet_eval.Harness.triage));
      if profile then
        results_digest := Some (Cet_obs.Manifest.digest results.Cet_eval.Harness.profiles);
      (match manifest_oc with
      | None -> ()
      | Some (path, oc) ->
        Cet_obs.Manifest.write oc
          {
            Cet_obs.Manifest.r_experiment = what;
            r_seed = seed;
            r_scale = scale;
            r_jobs = jobs;
            r_timing = not no_timing;
            r_binaries = results.binaries;
            r_functions = results.functions;
            r_quarantined = List.length results.failures;
            r_trace = trace_out;
            rows = results.profiles;
          };
        Printf.eprintf "run manifest written to %s (%d rows, digest %s)\n" path
          (List.length results.profiles)
          (Cet_obs.Manifest.digest results.profiles));
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
  Option.iter (fun (_, oc) -> close_out oc) triage_oc;
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
  (match trace_oc with
  | None -> ()
  | Some (path, oc) ->
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Report.write_trace oc);
    Printf.eprintf "trace written to %s\n" path);
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
  let doc =
    "Corpus scale factor: 1.0 reproduces the paper's suite sizes. Must be finite and positive."
  in
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
     Also zeroes the time fields of the --stats report and of the manifest's rows."
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
     and counter summaries) to $(docv).  Implies telemetry recording.  \
     $(b,cetstat chrome) converts it to the Chrome trace-event format."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let max_seconds =
  let doc =
    "Per-binary wall-clock budget in seconds.  A binary that exceeds it is \
     quarantined (its partial results are discarded) and the run continues. \
     Must be finite and positive."
  in
  Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"SECONDS" ~doc)

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

let top_slow =
  let doc =
    "Append a table of the $(docv) slowest binaries (by total evaluation \
     time) to the output.  Implies per-binary profiling.  Must be \
     non-negative; 0 (the default) disables the table."
  in
  Arg.(value & opt int 0 & info [ "top-slow" ] ~docv:"K" ~doc)

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
    "Write the run file to $(docv): a versioned JSON-lines run manifest, one \
     run header (options, corpus scale, jobs, a content digest of the whole \
     run and the --trace-out path), then one row per binary in plan order \
     (identity, the MD5 of its bytes, decode volume, status, phase time \
     split, and the error and backtrace of a quarantined binary).  With \
     --no-timing the rows are byte-identical across --jobs.  The manifest is \
     what $(b,cetstat) reads.  Implies per-binary profiling.  Opened before \
     the run, like every report file: an unwritable path fails fast with \
     exit code 2, and no report file is created or truncated."
  in
  Arg.(value & opt (some string) None & info [ "manifest-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "regenerate the FunSeeker paper's tables and figures" in
  Cmd.v
    (Cmd.info "evaluate" ~doc ~exits:
       [
         Cmd.Exit.info 0 ~doc:"on success.";
         Cmd.Exit.info 1 ~doc:"when binaries were quarantined.";
         Cmd.Exit.info 2 ~doc:"on usage errors (bad flags, unknown experiment).";
       ])
    Term.(
      const run_eval $ what $ seed $ scale $ progress $ jobs $ no_timing $ stats
      $ trace_out $ max_seconds $ fail_fast $ inject_fault $ triage $ triage_out
      $ top_slow $ metrics_out $ manifest_out)

let () = exit (Cmd.eval' cmd)
