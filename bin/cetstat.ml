(* Cross-run observability analyzer over `evaluate --manifest-out` run
   manifests and the artifacts they point at.

     cetstat report MANIFEST        one run: identity, phase latency,
                                    scheduler health
     cetstat diff OLD NEW           two runs joined by content digest:
                                    verdict changes + timing deltas
     cetstat anomalies MANIFEST     robust median/MAD outliers over the
                                    run's profile rows

   All analysis lives in Cet_obs; this file is argv, artifact-path
   resolution, and printing.  `diff` output never mentions input paths or
   scheduler knobs, so two runs over the same corpus diff byte-identically
   whatever --jobs produced them — `make check` cmp-verifies that.

   Exit status: 0 clean, 1 diff found differences, 2 usage or I/O. *)

open Cmdliner
module M = Cet_obs.Manifest
module P = Cet_obs.Profiles
module T = Cet_obs.Trace
module A = Cet_obs.Analyze

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "cetstat: %s\n" s; exit 2) fmt

let load_manifest path =
  match M.load path with Ok m -> m | Error e -> fail "%s" e

(* Artifact pointers are recorded as the user typed them to evaluate.
   Try the pointer as-is (absolute, or relative to the cwd), then
   relative to the manifest's own directory — the usual case after the
   artifacts moved as a bundle. *)
let resolve_artifact ~manifest_path = function
  | None -> None
  | Some p ->
    if Sys.file_exists p then Some p
    else
      let rel = Filename.concat (Filename.dirname manifest_path) p in
      if Sys.file_exists rel then Some rel else None

let load_profiles_opt ~manifest_path ~override (m : M.t) =
  let path =
    match override with
    | Some _ -> override
    | None -> resolve_artifact ~manifest_path m.M.r_artifacts.M.a_profile
  in
  match path with
  | None -> None
  | Some p -> (
    match P.load p with Ok rows -> Some rows | Error e -> fail "%s" e)

let load_trace_opt ~manifest_path ~override (m : M.t) =
  let path =
    match override with
    | Some _ -> override
    | None -> resolve_artifact ~manifest_path m.M.r_artifacts.M.a_trace
  in
  match path with
  | None -> None
  | Some p -> (match T.load p with Ok t -> Some t | Error e -> fail "%s" e)

(* ---- report ------------------------------------------------------- *)

let run_report manifest_path profile_override trace_override =
  let m = load_manifest manifest_path in
  Printf.printf "RUN %s\n" m.M.r_digest;
  Printf.printf "  experiment %s  seed %d  scale %g  timing %s\n" m.M.r_experiment
    m.M.r_seed m.M.r_scale
    (if m.M.r_timing then "on" else "off");
  Printf.printf "  scheduler: %d jobs\n" m.M.r_jobs;
  Printf.printf "  %d binaries, %d functions, %d quarantined\n" m.M.r_binaries
    m.M.r_functions m.M.r_quarantined;
  (match load_profiles_opt ~manifest_path ~override:profile_override m with
  | Some rows ->
    print_newline ();
    print_string (A.render_phase_stats (A.phase_stats rows))
  | None -> ());
  (match load_trace_opt ~manifest_path ~override:trace_override m with
  | Some t ->
    print_newline ();
    print_string (A.render_health (A.health_of_trace t))
  | None -> ());
  0

(* ---- diff --------------------------------------------------------- *)

let run_diff old_path new_path threshold old_profile new_profile =
  let old_run = load_manifest old_path and new_run = load_manifest new_path in
  let old_profiles =
    Option.value ~default:[]
      (load_profiles_opt ~manifest_path:old_path ~override:old_profile old_run)
  and new_profiles =
    Option.value ~default:[]
      (load_profiles_opt ~manifest_path:new_path ~override:new_profile new_run)
  in
  let d = A.diff ~threshold ~old_run ~new_run ~old_profiles ~new_profiles () in
  print_string (A.render_diff d);
  if A.clean d then 0 else 1

(* ---- anomalies ---------------------------------------------------- *)

let run_anomalies manifest_path z_cut profile_override =
  let m = load_manifest manifest_path in
  match load_profiles_opt ~manifest_path ~override:profile_override m with
  | None ->
    fail "%s: no profile artifact recorded and no --profile given" manifest_path
  | Some rows ->
    print_string (A.render_anomalies (A.anomalies ~z_cut rows));
    0

(* ---- argv --------------------------------------------------------- *)

let manifest_pos ~docv n =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc:"Run manifest (JSONL).")

let profile_flag =
  let doc = "Profile JSONL to analyze (overrides the manifest's artifact pointer)." in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let report_cmd =
  let trace_flag =
    let doc = "Trace file to analyze (overrides the manifest's artifact pointer)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize one run: identity, phase latency, scheduler health.")
    Term.(const run_report $ manifest_pos ~docv:"MANIFEST" 0 $ profile_flag $ trace_flag)

let diff_cmd =
  let threshold =
    let doc = "Flag timing changes beyond this percentage." in
    Arg.(value & opt float 20.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let old_profile =
    Arg.(value & opt (some string) None
         & info [ "old-profile" ] ~docv:"FILE" ~doc:"Old run's profile JSONL.")
  and new_profile =
    Arg.(value & opt (some string) None
         & info [ "new-profile" ] ~docv:"FILE" ~doc:"New run's profile JSONL.")
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
      const run_diff $ manifest_pos ~docv:"OLD" 0 $ manifest_pos ~docv:"NEW" 1
      $ threshold $ old_profile $ new_profile)

let anomalies_cmd =
  let z_cut =
    let doc = "Robust z-score cut; rows at or beyond it are anomalies." in
    Arg.(value & opt float 3.5 & info [ "z" ] ~docv:"Z" ~doc)
  in
  Cmd.v
    (Cmd.info "anomalies"
       ~doc:"Median/MAD outliers over per-binary wall time and phase shares.")
    Term.(const run_anomalies $ manifest_pos ~docv:"MANIFEST" 0 $ z_cut $ profile_flag)

let cmd =
  Cmd.group
    (Cmd.info "cetstat" ~doc:"Cross-run observability for evaluate run manifests.")
    [ report_cmd; diff_cmd; anomalies_cmd ]

let () = exit (Cmd.eval' cmd)
