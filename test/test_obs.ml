(* Tests for Cet_obs, the cross-run analyzer: manifest round-trip and
   strictness, writer/reader run-digest agreement (pinned, and stable
   across ~jobs), profile-JSONL re-parsing, cross-run diff semantics on
   the content-digest join, robust median/MAD anomaly detection, and
   trace parsing (both formats) feeding scheduler health. *)

module Harness = Cet_eval.Harness
module Manifest = Cet_obs.Manifest
module Profiles = Cet_obs.Profiles
module Trace = Cet_obs.Trace
module Analyze = Cet_obs.Analyze

let check = Alcotest.check

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let replace_all ~from ~into s =
  let fl = String.length from in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i >= String.length s then Buffer.contents buf
    else if i + fl <= String.length s && String.sub s i fl = from then begin
      Buffer.add_string buf into;
      go (i + fl)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let read_back write =
  let tmp = Filename.temp_file "cet-obs" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc);
      let ic = open_in tmp in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Writer/reader agreement over a real (micro) harness run            *)
(* ------------------------------------------------------------------ *)

let micro_profile =
  {
    Cet_corpus.Profile.coreutils with
    Cet_corpus.Profile.suite = "coreutils";
    programs = 2;
    funcs_lo = 30;
    funcs_hi = 40;
  }

let micro_configs =
  [
    Cet_compiler.Options.default;
    {
      Cet_compiler.Options.default with
      Cet_compiler.Options.compiler = Cet_compiler.Options.Clang;
    };
  ]

let micro_opts =
  {
    Harness.default_options with
    Harness.seed = 11;
    scale = 1.0;
    timing = false;
    profile = true;
  }

let run_micro ~jobs = Harness.run ~profiles:[ micro_profile ] ~configs:micro_configs ~jobs micro_opts

let micro_meta ~jobs =
  {
    Harness.m_experiment = "micro";
    m_jobs = jobs;
    m_profile_art = None;
    m_quarantine_art = None;
    m_trace_art = None;
    m_metrics_art = None;
  }

let manifest_text ~jobs r =
  read_back (fun oc -> Harness.write_manifest oc ~meta:(micro_meta ~jobs) micro_opts r)

(* The micro corpus is deterministic in its seed, so its run digest is a
   constant of the codebase; pinning the hex value catches any silent
   change to the digest recipe, the corpus generator, or the stripped
   ELF bytes themselves.  Recompute deliberately if one of those is
   meant to change. *)
let pinned_micro_digest = "24ed52d35a17091e2512f4f7e57b4305"

let test_manifest_round_trip () =
  let r = run_micro ~jobs:1 in
  let text = manifest_text ~jobs:1 r in
  match Manifest.parse text with
  | Error e -> Alcotest.failf "manifest rejected: %s" e
  | Ok m ->
    check Alcotest.string "header digest = writer digest" (Harness.run_digest r)
      m.Manifest.r_digest;
    check Alcotest.int "one row per profile"
      (List.length r.Harness.profiles)
      (List.length m.Manifest.rows);
    check Alcotest.string "experiment" "micro" m.Manifest.r_experiment;
    check Alcotest.int "seed" 11 m.Manifest.r_seed;
    check Alcotest.bool "timing off" false m.Manifest.r_timing;
    check Alcotest.(option string) "no profile artifact" None
      m.Manifest.r_artifacts.Manifest.a_profile;
    (* Reader-side recomputation agrees with the writer's recipe. *)
    check Alcotest.string "recompute agrees" m.Manifest.r_digest
      (Manifest.recompute_digest m.Manifest.rows);
    List.iter2
      (fun (p : Harness.profile) (b : Manifest.binary) ->
        check Alcotest.string "key order preserved" (Harness.profile_key p)
          (Manifest.key b);
        check Alcotest.string "content digest carried" p.Harness.p_digest
          b.Manifest.b_digest)
      r.Harness.profiles m.Manifest.rows

let test_run_digest_pinned_across_jobs () =
  let d1 = Harness.run_digest (run_micro ~jobs:1) in
  let d4 = Harness.run_digest (run_micro ~jobs:4) in
  check Alcotest.string "stable across jobs" d1 d4;
  check Alcotest.string "pinned" pinned_micro_digest d1

let test_manifest_strictness () =
  let r = run_micro ~jobs:1 in
  let text = manifest_text ~jobs:1 r in
  let lines = String.split_on_char '\n' text in
  let reject what t =
    match Manifest.parse t with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e -> e
  in
  (* An unsupported schema is an error, not a guess: a future one, or
     the schema-1 rows that still carried [attempts]. *)
  let schema n = Printf.sprintf "\"schema\":%d," n in
  List.iter
    (fun n ->
      let other = replace_all ~from:(schema Manifest.schema) ~into:(schema n) text in
      check Alcotest.string
        (Printf.sprintf "schema %d rejected" n)
        (Printf.sprintf "unsupported manifest schema %d (want %d)" n Manifest.schema)
        (reject (Printf.sprintf "schema %d" n) other))
    [ 1; 99 ];
  (* A manifest without its run header is not a manifest. *)
  let headless = String.concat "\n" (List.tl lines) in
  ignore (reject "headless manifest" headless);
  (* A tampered row digest breaks the header's verified recomputation. *)
  let tampered =
    match lines with
    | header :: (row : string) :: rest ->
      (* Swap the second line's content digest for zeros. *)
      let marker = "\"digest\":\"" in
      let rec find i =
        if i + String.length marker > String.length row then
          Alcotest.fail "binary row has no digest field"
        else if String.sub row i (String.length marker) = marker then i
        else find (i + 1)
      in
      let start = find 0 + String.length marker in
      let zeroed =
        String.sub row 0 start
        ^ String.make 32 '0'
        ^ String.sub row (start + 32) (String.length row - start - 32)
      in
      String.concat "\n" (header :: zeroed :: rest)
    | _ -> Alcotest.fail "manifest too short"
  in
  check Alcotest.bool "tamper detected" true
    (contains (reject "tampered manifest" tampered) "digest mismatch")

let test_profiles_reader_round_trip () =
  let r = run_micro ~jobs:1 in
  let text = read_back (fun oc -> Harness.write_profiles oc r) in
  match Profiles.parse text with
  | Error e -> Alcotest.failf "profile JSONL rejected: %s" e
  | Ok rows ->
    check Alcotest.int "row count" (List.length r.Harness.profiles)
      (List.length rows);
    List.iter2
      (fun (p : Harness.profile) (row : Profiles.row) ->
        check Alcotest.string "key" (Harness.profile_key p) (Profiles.key row);
        check Alcotest.string "digest" p.Harness.p_digest row.Profiles.digest;
        check Alcotest.int "phases carried"
          (List.length p.Harness.p_phases)
          (List.length row.Profiles.phases))
      r.Harness.profiles rows

(* ------------------------------------------------------------------ *)
(* Diff semantics                                                     *)
(* ------------------------------------------------------------------ *)

let bin ?(status = "ok") ~program ~digest () =
  {
    Manifest.b_suite = "s";
    b_program = program;
    b_config = "c";
    b_arch = "x64";
    b_digest = digest;
    b_status = status;
    b_text_bytes = 100;
    b_insns = 10;
    b_resyncs = 0;
    b_truth = 5;
  }

let run_of rows =
  {
    Manifest.r_digest = Manifest.recompute_digest rows;
    r_experiment = "fake";
    r_seed = 1;
    r_scale = 1.0;
    r_jobs = 1;
    r_timing = false;
    r_binaries = List.length rows;
    r_functions = 0;
    r_quarantined = 0;
    r_artifacts =
      { Manifest.a_profile = None; a_quarantine = None; a_trace = None; a_metrics = None };
    rows;
  }

let test_diff_clean_across_jobs () =
  let ra = run_micro ~jobs:1 and rb = run_micro ~jobs:4 in
  let ma = Result.get_ok (Manifest.parse (manifest_text ~jobs:1 ra)) in
  let mb = Result.get_ok (Manifest.parse (manifest_text ~jobs:4 rb)) in
  let d = Analyze.diff ~old_run:ma ~new_run:mb () in
  check Alcotest.int "joins every binary" (List.length ma.Manifest.rows)
    d.Analyze.d_matched;
  check Alcotest.(list string) "nothing added" [] d.Analyze.d_added;
  check Alcotest.(list string) "nothing removed" [] d.Analyze.d_removed;
  check Alcotest.int "no verdict changes" 0 (List.length d.Analyze.d_changed);
  check Alcotest.bool "clean" true (Analyze.clean d);
  let rendered = Analyze.render_diff d in
  check Alcotest.bool "render names the digests" true
    (contains rendered ma.Manifest.r_digest);
  (* The render must stay byte-identical across schedulers, so it never
     mentions jobs or input paths. *)
  check Alcotest.bool "render omits scheduler knobs" false (contains rendered "jobs")

let test_diff_detects_changes () =
  let old_run =
    run_of [ bin ~program:"a" ~digest:"d1" (); bin ~program:"b" ~digest:"d2" () ]
  in
  let new_run =
    run_of
      [ bin ~program:"a" ~digest:"d1" ~status:"quarantined" (); bin ~program:"c" ~digest:"d3" () ]
  in
  let d = Analyze.diff ~old_run ~new_run () in
  check Alcotest.int "one join" 1 d.Analyze.d_matched;
  check Alcotest.(list string) "b vanished" [ "s/b[c]" ] d.Analyze.d_removed;
  check Alcotest.(list string) "c appeared" [ "s/c[c]" ] d.Analyze.d_added;
  (match d.Analyze.d_changed with
  | [ c ] ->
    check Alcotest.string "field" "status" c.Analyze.vc_field;
    check Alcotest.string "old" "ok" c.Analyze.vc_old;
    check Alcotest.string "new" "quarantined" c.Analyze.vc_new
  | l -> Alcotest.failf "expected one verdict change, got %d" (List.length l));
  check Alcotest.bool "not clean" false (Analyze.clean d)

let prow ?(status = "ok") ?(total = 1.0) ?(phases = []) ~program ~digest () =
  {
    Profiles.suite = "s";
    program;
    config = "c";
    arch = "x64";
    digest;
    text_bytes = 100;
    insns = 10;
    resyncs = 0;
    truth = 5;
    status;
    total_ms = total;
    phases;
  }

let test_diff_timing_axis () =
  let old_run = run_of [ bin ~program:"a" ~digest:"d1" (); bin ~program:"b" ~digest:"d2" () ]
  and new_run = run_of [ bin ~program:"a" ~digest:"d1" (); bin ~program:"b" ~digest:"d2" () ] in
  let old_profiles =
    [
      prow ~program:"a" ~digest:"d1" ~total:100.0 ~phases:[ ("funseeker", 10.0) ] ();
      prow ~program:"b" ~digest:"d2" ~total:0.0 ();
    ]
  and new_profiles =
    [
      prow ~program:"a" ~digest:"d1" ~total:150.0 ~phases:[ ("funseeker", 2.0) ] ();
      prow ~program:"b" ~digest:"d2" ~total:50.0 ();
    ]
  in
  let d = Analyze.diff ~old_run ~new_run ~old_profiles ~new_profiles () in
  (* b's old side is untimed (0.0): excluded from the timing axis rather
     than reported as an infinite regression. *)
  check Alcotest.int "only timed pairs count" 1 d.Analyze.d_timed;
  (match d.Analyze.d_regressed with
  | [ x ] ->
    check Alcotest.string "total regressed" "total" x.Analyze.pd_phase;
    check (Alcotest.float 1e-9) "+50%" 50.0 x.Analyze.pd_pct
  | l -> Alcotest.failf "expected one regression, got %d" (List.length l));
  (match d.Analyze.d_improved with
  | [ x ] ->
    check Alcotest.string "phase improved" "funseeker" x.Analyze.pd_phase;
    check (Alcotest.float 1e-9) "-80%" (-80.0) x.Analyze.pd_pct
  | l -> Alcotest.failf "expected one improvement, got %d" (List.length l));
  (* A timing regression is a finding: the diff is not clean even though
     every verdict agrees. *)
  check Alcotest.bool "regression is a finding" false (Analyze.clean d)

(* ------------------------------------------------------------------ *)
(* Anomalies                                                          *)
(* ------------------------------------------------------------------ *)

let test_robust_z () =
  let zs = Analyze.robust_z [| 10.0; 10.0; 10.0; 10.0; 10.0; 100.0 |] in
  check Alcotest.bool "outlier flagged" true (Float.abs zs.(5) > 3.5);
  Array.iteri (fun i z -> if i < 5 then check (Alcotest.float 1e-9) "inliers at 0" 0.0 z) zs;
  let flat = Analyze.robust_z (Array.make 8 42.0) in
  Array.iter (fun z -> check (Alcotest.float 1e-9) "constant population" 0.0 z) flat;
  check Alcotest.int "empty" 0 (Array.length (Analyze.robust_z [||]))

let test_anomalies_planted_outlier () =
  let phases total = [ ("funseeker", total /. 2.0); ("ida", total /. 2.0) ] in
  let rows =
    List.init 11 (fun i ->
        prow
          ~program:(Printf.sprintf "p%02d" i)
          ~digest:(Printf.sprintf "d%02d" i)
          ~total:10.0 ~phases:(phases 10.0) ())
    @ [
        prow ~program:"whale" ~digest:"dw" ~total:100.0 ~phases:(phases 100.0) ();
        (* A quarantined row with an absurd time must not poison the
           baseline — nor be reported as an anomaly itself. *)
        prow ~program:"q" ~digest:"dq" ~status:"quarantined" ~total:0.5 ~phases:(phases 0.5) ();
      ]
  in
  let found, excluded = Analyze.anomalies rows in
  (match found with
  | [ a ] ->
    check Alcotest.string "metric" "total_ms" a.Analyze.an_metric;
    check Alcotest.string "who" "s/whale[c]" a.Analyze.an_key;
    check (Alcotest.float 1e-9) "median" 10.0 a.Analyze.an_median;
    check Alcotest.bool "z beyond cut" true (a.Analyze.an_z >= 3.5)
  | l -> Alcotest.failf "expected exactly the whale, got %d anomalies" (List.length l));
  check Alcotest.int "quarantined row reported separately" 1 (List.length excluded);
  check Alcotest.string "excluded is the quarantined row" "quarantined"
    (List.hd excluded).Profiles.status;
  let rendered = Analyze.render_anomalies (found, excluded) in
  check Alcotest.bool "render names the whale" true (contains rendered "whale");
  check Alcotest.bool "render counts exclusions" true (contains rendered "1 quarantined")

(* ------------------------------------------------------------------ *)
(* Traces and scheduler health                                        *)
(* ------------------------------------------------------------------ *)

let jsonl_trace =
  String.concat "\n"
    [
      {|{"type":"span","sheet":0,"name":"harness.binary","start_ns":0,"dur_ns":5000000}|};
      {|{"type":"span","sheet":1,"name":"harness.binary","start_ns":0,"dur_ns":3000000}|};
      {|{"type":"span","sheet":1,"name":"funseeker.analyze","start_ns":0,"dur_ns":999}|};
      {|{"type":"counter","name":"harness.binaries","value":2}|};
      {|{"type":"counter","name":"scheduler.steals","value":1}|};
      {|{"type":"gauge","name":"harness.wall_s","value":0.01}|};
      {|{"type":"gauge","name":"scheduler.max_pending","value":4}|};
    ]

let test_health_from_jsonl_trace () =
  match Trace.parse jsonl_trace with
  | Error e -> Alcotest.failf "jsonl trace rejected: %s" e
  | Ok t ->
    let h = Analyze.health_of_trace t in
    check Alcotest.int "workers" 2 h.Analyze.hw_workers;
    check (Alcotest.float 1e-9) "busy ms" 8.0 h.Analyze.hw_busy_ms;
    check (Alcotest.float 1e-9) "wall ms" 10.0 h.Analyze.hw_wall_ms;
    check (Alcotest.float 1e-9) "busy fraction" 0.4 h.Analyze.hw_busy_fraction;
    check (Alcotest.float 1e-9) "queue wait" 6.0 h.Analyze.hw_queue_wait_ms;
    check Alcotest.int "binaries" 2 h.Analyze.hw_binaries;
    check (Alcotest.float 1e-9) "steal ratio" 0.5 h.Analyze.hw_steal_ratio;
    check Alcotest.int "max pending" 4 h.Analyze.hw_max_pending;
    check Alcotest.bool "renders" true
      (contains (Analyze.render_health h) "SCHEDULER HEALTH")

let test_chrome_trace_parses () =
  let chrome =
    {|[{"ph":"X","tid":3,"pid":1,"name":"harness.binary","ts":1.5,"dur":2000.0},
       {"ph":"i","tid":0,"pid":1,"name":"quarantine","s":"t"}]|}
  in
  match Trace.parse chrome with
  | Error e -> Alcotest.failf "chrome trace rejected: %s" e
  | Ok t ->
    (match t.Trace.spans with
    | [ s ] ->
      check Alcotest.int "sheet from tid" 3 s.Trace.t_sheet;
      check Alcotest.int "us -> ns start" 1500 s.Trace.t_start_ns;
      check Alcotest.int "us -> ns dur" 2_000_000 s.Trace.t_dur_ns
    | l -> Alcotest.failf "expected one span, got %d" (List.length l))

let test_phase_stats () =
  let rows =
    [
      prow ~program:"a" ~digest:"d1" ~total:3.0
        ~phases:[ ("funseeker", 1.0); ("ida", 2.0) ] ();
      prow ~program:"b" ~digest:"d2" ~total:5.0
        ~phases:[ ("funseeker", 4.0); ("ida", 1.0) ] ();
    ]
  in
  let stats = Analyze.phase_stats rows in
  check Alcotest.(list string) "first-appearance order plus total"
    [ "funseeker"; "ida"; "total" ]
    (List.map (fun s -> s.Analyze.ps_phase) stats);
  let fs = List.hd stats in
  check Alcotest.int "count" 2 fs.Analyze.ps_count;
  check (Alcotest.float 1e-9) "total" 5.0 fs.Analyze.ps_total_ms;
  check Alcotest.bool "max within octave bound" true
    (fs.Analyze.ps_max_ms >= 4.0 && fs.Analyze.ps_max_ms <= 4.0 +. 1e-9);
  check Alcotest.bool "renders" true
    (contains (Analyze.render_phase_stats stats) "PHASE LATENCY")

(* cetstat's PHASE LATENCY table gives each tool's p50, p99 and max from
   the profile rows alone.  The quantiles come from log-bucketed
   histograms, so they are exact only to within a bucket; the mean, the
   total, the row count and the max are exact. *)
let test_phase_stats_quantiles () =
  let rows =
    List.init 100 (fun i ->
        let ms = float_of_int (i + 1) in
        let phases = ("funseeker", ms) :: (if i mod 2 = 0 then [ ("ida", 2.0 *. ms) ] else []) in
        prow ~program:(string_of_int i) ~digest:(string_of_int i) ~total:(3.0 *. ms) ~phases ())
  in
  let stats = Analyze.phase_stats rows in
  let stat name = List.find (fun s -> s.Analyze.ps_phase = name) stats in
  let fs = stat "funseeker" and ida = stat "ida" and total = stat "total" in
  check Alcotest.int "funseeker: one sample a row" 100 fs.Analyze.ps_count;
  check Alcotest.int "ida: only the rows that ran it" 50 ida.Analyze.ps_count;
  check Alcotest.int "total: every row" 100 total.Analyze.ps_count;
  check (Alcotest.float 1e-6) "funseeker: total" 5050.0 fs.Analyze.ps_total_ms;
  check (Alcotest.float 1e-6) "funseeker: mean" 50.5 fs.Analyze.ps_mean_ms;
  check (Alcotest.float 1e-6) "funseeker: max exact" 100.0 fs.Analyze.ps_max_ms;
  check (Alcotest.float 1e-6) "ida: max exact" 198.0 ida.Analyze.ps_max_ms;
  check (Alcotest.float 1e-6) "total: max exact" 300.0 total.Analyze.ps_max_ms;
  List.iter
    (fun (s, p50, p99) ->
      let within want got = got >= want /. 2.0 && got <= want *. 2.0 in
      if not (within p50 s.Analyze.ps_p50_ms) then
        Alcotest.failf "%s: p50 %g not within a factor of two of %g" s.Analyze.ps_phase
          s.Analyze.ps_p50_ms p50;
      if not (within p99 s.Analyze.ps_p99_ms) then
        Alcotest.failf "%s: p99 %g not within a factor of two of %g" s.Analyze.ps_phase
          s.Analyze.ps_p99_ms p99;
      if not (s.Analyze.ps_p50_ms <= s.Analyze.ps_p99_ms && s.Analyze.ps_p99_ms <= s.Analyze.ps_max_ms)
      then Alcotest.failf "%s: p50 <= p99 <= max fails" s.Analyze.ps_phase)
    [ (fs, 50.0, 99.0); (ida, 100.0, 198.0); (total, 150.0, 297.0) ];
  let table = Analyze.render_phase_stats stats in
  check Alcotest.bool "max column printed" true (contains table "100.000")

let suite =
  [
    ( "obs.manifest",
      [
        Alcotest.test_case "round-trip" `Quick test_manifest_round_trip;
        Alcotest.test_case "run digest pinned across jobs" `Quick
          test_run_digest_pinned_across_jobs;
        Alcotest.test_case "strict parsing" `Quick test_manifest_strictness;
        Alcotest.test_case "profile JSONL round-trip" `Quick
          test_profiles_reader_round_trip;
      ] );
    ( "obs.diff",
      [
        Alcotest.test_case "clean across jobs" `Quick test_diff_clean_across_jobs;
        Alcotest.test_case "verdict changes and churn" `Quick
          test_diff_detects_changes;
        Alcotest.test_case "timing axis" `Quick test_diff_timing_axis;
      ] );
    ( "obs.anomalies",
      [
        Alcotest.test_case "robust z" `Quick test_robust_z;
        Alcotest.test_case "planted outlier" `Quick test_anomalies_planted_outlier;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "health from jsonl trace" `Quick
          test_health_from_jsonl_trace;
        Alcotest.test_case "chrome trace parses" `Quick test_chrome_trace_parses;
        Alcotest.test_case "phase stats" `Quick test_phase_stats;
        Alcotest.test_case "phase stats: p50, p99 and max per tool" `Quick
          test_phase_stats_quantiles;
      ] );
  ]
