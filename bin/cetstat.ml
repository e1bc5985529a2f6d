(* Cross-run observability analyzer over `evaluate --manifest-out` run
   manifests, and the trace converter.

     cetstat report MANIFEST        one run: identity, phase latency,
                                    scheduler health (from its trace)
     cetstat diff OLD NEW           two runs joined by content digest:
                                    verdict changes + timing deltas
     cetstat anomalies MANIFEST     robust median/MAD outliers over the
                                    run's rows
     cetstat chrome TRACE.jsonl     the trace's spans as a Chrome
                                    trace-event array, for
                                    chrome://tracing or Perfetto

   All analysis lives in Cet_obs; this file is argv, trace-path
   resolution, and printing.  `diff` output never mentions input paths or
   scheduler knobs, so two runs over the same corpus diff byte-identically
   whatever --jobs produced them — `make check` cmp-verifies that.

   Exit status: 0 clean, 1 diff found differences, 2 usage or I/O. *)

open Cmdliner
module M = Cet_obs.Manifest
module T = Cet_obs.Trace
module A = Cet_obs.Analyze

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "cetstat: %s\n" s; exit 2) fmt

let load_manifest path =
  match M.load path with Ok m -> m | Error e -> fail "%s" e

let load_trace path = match T.load path with Ok t -> t | Error e -> fail "%s" e

(* NaN compares false against everything: a NaN threshold or cut would
   silently report nothing. *)
let check_number flag ~positive x =
  if not (Float.is_finite x) then fail "%s must be finite (got %g)" flag x;
  if positive && x <= 0.0 then fail "%s must be positive (got %g)" flag x;
  if x < 0.0 then fail "%s must be non-negative (got %g)" flag x

(* The trace pointer is recorded as the user typed it to evaluate.  Try
   it as-is (absolute, or relative to the cwd), then relative to the
   manifest's own directory — the usual case after the files moved as a
   bundle. *)
let resolve_trace ~manifest_path = function
  | None -> None
  | Some p ->
    if Sys.file_exists p then Some p
    else
      let rel = Filename.concat (Filename.dirname manifest_path) p in
      if Sys.file_exists rel then Some rel else None

(* ---- report ------------------------------------------------------- *)

let run_report manifest_path trace_override =
  let m = load_manifest manifest_path in
  Printf.printf "RUN %s\n" (M.digest m.M.rows);
  Printf.printf "  experiment %s  seed %d  scale %g  timing %s\n" m.M.r_experiment
    m.M.r_seed m.M.r_scale
    (if m.M.r_timing then "on" else "off");
  Printf.printf "  scheduler: %d jobs\n" m.M.r_jobs;
  Printf.printf "  %d binaries, %d functions, %d quarantined\n" m.M.r_binaries
    m.M.r_functions m.M.r_quarantined;
  print_newline ();
  print_string (A.render_phase_stats (A.phase_stats m.M.rows));
  let trace =
    match trace_override with
    | Some _ -> trace_override
    | None -> resolve_trace ~manifest_path m.M.r_trace
  in
  Option.iter
    (fun p ->
      print_newline ();
      print_string (A.render_health (A.health_of_trace (load_trace p))))
    trace;
  0

(* ---- diff --------------------------------------------------------- *)

let run_diff old_path new_path threshold =
  check_number "--threshold" ~positive:false threshold;
  let old_run = load_manifest old_path and new_run = load_manifest new_path in
  let d = A.diff ~threshold ~old_run ~new_run () in
  print_string (A.render_diff d);
  if A.clean d then 0 else 1

(* ---- anomalies ---------------------------------------------------- *)

let run_anomalies manifest_path z_cut =
  check_number "-z" ~positive:true z_cut;
  let m = load_manifest manifest_path in
  print_string (A.render_anomalies (A.anomalies ~z_cut m.M.rows));
  0

(* ---- chrome ------------------------------------------------------- *)

let run_chrome trace_path =
  print_string (T.to_chrome (load_trace trace_path));
  0

(* ---- argv --------------------------------------------------------- *)

let manifest_pos ~docv n =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc:"Run manifest (JSONL).")

let report_cmd =
  let trace_flag =
    let doc = "Trace file to analyze (overrides the manifest's trace pointer)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize one run: identity, phase latency, scheduler health.")
    Term.(const run_report $ manifest_pos ~docv:"MANIFEST" 0 $ trace_flag)

let diff_cmd =
  let threshold =
    let doc = "Flag timing changes beyond this percentage.  Must be finite and non-negative." in
    Arg.(value & opt float 20.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Join two runs by content digest and compare verdicts and timing."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"when the runs agree (clean).";
           Cmd.Exit.info 1 ~doc:"when verdicts changed, rows appeared/vanished, or timing regressed.";
           Cmd.Exit.info 2 ~doc:"on usage or I/O errors.";
         ])
    Term.(
      const run_diff $ manifest_pos ~docv:"OLD" 0 $ manifest_pos ~docv:"NEW" 1 $ threshold)

let anomalies_cmd =
  let z_cut =
    let doc = "Robust z-score cut; rows at or beyond it are anomalies.  Must be finite and positive." in
    Arg.(value & opt float 3.5 & info [ "z" ] ~docv:"Z" ~doc)
  in
  Cmd.v
    (Cmd.info "anomalies"
       ~doc:"Median/MAD outliers over per-binary wall time and phase shares.")
    Term.(const run_anomalies $ manifest_pos ~docv:"MANIFEST" 0 $ z_cut)

let chrome_cmd =
  let trace_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE" ~doc:"JSON-lines trace ($(b,evaluate --trace-out)).")
  in
  Cmd.v
    (Cmd.info "chrome"
       ~doc:"Print a trace's spans as a Chrome trace-event array (chrome://tracing, Perfetto).")
    Term.(const run_chrome $ trace_pos)

let cmd =
  Cmd.group
    (Cmd.info "cetstat" ~doc:"Cross-run observability for evaluate run manifests.")
    [ report_cmd; diff_cmd; anomalies_cmd; chrome_cmd ]

let () = exit (Cmd.eval' cmd)
