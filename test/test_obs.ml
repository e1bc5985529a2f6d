(* Tests for Cet_obs, the run file and the cross-run analyzer: manifest
   round-trip (over harness runs and generated rows) and strictness, the
   run digest (pinned, and stable across ~jobs), cross-run diff semantics
   on the content-digest join, robust median/MAD anomaly detection, and
   JSON-lines traces: parsing, scheduler health and the Chrome
   conversion. *)

module Harness = Cet_eval.Harness
module Manifest = Cet_obs.Manifest
module Trace = Cet_obs.Trace
module Analyze = Cet_obs.Analyze
module Jz = Cet_util.Jsonl

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
      Out_channel.with_open_bin tmp write;
      In_channel.with_open_bin tmp In_channel.input_all)

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

(* The manifest evaluate writes for a micro run. *)
let micro_manifest ~jobs (r : Harness.results) =
  {
    Manifest.r_experiment = "micro";
    r_seed = 11;
    r_scale = 1.0;
    r_jobs = jobs;
    r_timing = false;
    r_binaries = r.Harness.binaries;
    r_functions = r.Harness.functions;
    r_quarantined = List.length r.Harness.failures;
    r_trace = None;
    rows = r.Harness.profiles;
  }

let manifest_text ~jobs r = read_back (fun oc -> Manifest.write oc (micro_manifest ~jobs r))

(* The micro corpus is deterministic in its seed, so its run digest is a
   constant of the codebase; pinning the hex value catches any silent
   change to the digest recipe, the corpus generator, or the stripped
   ELF bytes themselves.  Recompute deliberately if one of those is
   meant to change. *)
let pinned_micro_digest = "24ed52d35a17091e2512f4f7e57b4305"

let header_field name text =
  match Jz.parse (List.hd (String.split_on_char '\n' text)) with
  | Ok header -> Option.bind (Jz.member name header) Jz.str
  | Error e -> Alcotest.failf "header does not parse: %s" e

let test_manifest_round_trip () =
  let r = run_micro ~jobs:1 in
  let text = manifest_text ~jobs:1 r in
  match Manifest.parse text with
  | Error e -> Alcotest.failf "manifest rejected: %s" e
  | Ok m ->
    check Alcotest.bool "parsed = written, rows in plan order" true
      (m = micro_manifest ~jobs:1 r);
    check Alcotest.(option string) "header digest = run digest"
      (Some (Manifest.digest r.Harness.profiles))
      (header_field "digest" text);
    check Alcotest.int "one row per binary" (List.length r.Harness.profiles)
      (List.length (String.split_on_char '\n' (String.trim text)) - 1)

let test_run_digest_pinned_across_jobs () =
  let digest jobs = Manifest.digest (run_micro ~jobs).Harness.profiles in
  let d1 = digest 1 in
  check Alcotest.string "stable across jobs" d1 (digest 4);
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
  check Alcotest.string "headless manifest" "first manifest row is not a kind:\"run\" header"
    (reject "headless manifest" headless);
  (* A row that lost a field is refused, not defaulted. *)
  check Alcotest.bool "row without total_ms" true
    (contains
       (reject "row without total_ms" (replace_all ~from:"\"total_ms\":" ~into:"\"total\":" text))
       "missing or mistyped field \"total_ms\"");
  (* A tampered row digest breaks the header's verified recomputation. *)
  let tampered =
    match lines with
    | header :: (row : string) :: rest ->
      (* Swap the first row's content digest for zeros. *)
      let marker = "\"digest\":\"" in
      let rec find i =
        if i + String.length marker > String.length row then
          Alcotest.fail "row has no digest field"
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

(* The schema-2 manifest, as the previous format wrote it: a header with
   four artifact pointers, then kind:"binary" rows without timings.  It
   is refused by its schema, before any row is misread. *)
let test_schema2_rejected () =
  let schema2 =
    String.concat "\n"
      [
        {|{"schema":2,"kind":"run","digest":"6c4ae5a5e0df3ff8c6c6c6e4b5a3a2f1","experiment":"all","seed":2022,"scale":0.02,"jobs":2,"timing":false,"binaries":1,"functions":9,"quarantined":0,"artifacts":{"profile":null,"quarantine":null,"trace":null,"metrics":null}}|};
        {|{"schema":2,"kind":"binary","suite":"s","program":"p","config":"c","arch":"x64","digest":"d","status":"ok","text_bytes":1,"insns":1,"resyncs":0,"truth":9}|};
        "";
      ]
  in
  check Alcotest.(result pass string) "schema 2 rejected by name"
    (Error "unsupported manifest schema 2 (want 3)")
    (Result.map ignore (Manifest.parse schema2))

(* The rows after the header are the profile JSONL, byte for byte: every
   row is one object whose keys come in the fixed order, its phases in
   the harness's vocabulary, and the rows read back as the harness's. *)
let test_profiles_reader_round_trip () =
  let r = run_micro ~jobs:1 in
  let text = manifest_text ~jobs:1 r in
  (match Manifest.parse text with
  | Error e -> Alcotest.failf "manifest rejected: %s" e
  | Ok m -> check Alcotest.bool "rows read back" true (m.Manifest.rows = r.Harness.profiles));
  let rows = List.filter (( <> ) "") (List.tl (String.split_on_char '\n' text)) in
  check Alcotest.int "row count" (List.length r.Harness.profiles) (List.length rows);
  List.iter
    (fun line ->
      match Jz.parse line with
      | Ok (Jz.Obj fields) ->
        check
          Alcotest.(list string)
          "keys in fixed order"
          [
            "suite"; "program"; "config"; "arch"; "digest"; "text_bytes"; "insns";
            "resyncs"; "truth"; "status"; "total_ms"; "phases";
          ]
          (List.map fst fields);
        check
          Alcotest.(list string)
          "phases carried" Harness.profile_phase_names
          (match List.assoc "phases" fields with
          | Jz.Obj ps -> List.map fst ps
          | _ -> [])
      | _ -> Alcotest.failf "row is not a JSON object: %s" line)
    rows

(* Rows with every kind of string the escaper must carry — quotes,
   backslashes, newlines and other control bytes, UTF-8 — and times in
   whole microseconds, as the writer prints them, come back equal. *)
let qcheck_manifest_round_trip =
  let open QCheck.Gen in
  let text =
    map (String.concat "")
      (list_size (int_bound 6)
         (oneofl
            [ "a"; "Z9"; " "; "\""; "\\"; "\n"; "\r"; "\t"; "\x01"; "\x7f"; "/"; "é"; "→"; "😀";
              "Failure(\"x\")"; "Raised at Cet.f in file \"a.ml\", line 1\n" ]))
  in
  let ms = map (fun us -> float_of_int us /. 1e3) (int_bound 10_000_000) in
  let row =
    text >>= fun p_suite ->
    text >>= fun p_program ->
    text >>= fun p_config ->
    oneofl [ "x86"; "x64" ] >>= fun p_arch ->
    text >>= fun p_digest ->
    nat >>= fun p_text_bytes ->
    nat >>= fun p_insns ->
    nat >>= fun p_resyncs ->
    nat >>= fun p_truth ->
    ms >>= fun p_total_ms ->
    list_repeat (List.length Harness.profile_phase_names) ms >>= fun times ->
    opt text >>= fun failure ->
    text >|= fun backtrace ->
    {
      Manifest.p_suite; p_program; p_config; p_arch; p_digest; p_text_bytes; p_insns;
      p_resyncs; p_truth;
      p_status = (if failure = None then "ok" else "quarantined");
      p_total_ms;
      p_phases = List.combine Harness.profile_phase_names times;
      p_error = failure;
      p_backtrace = Option.map (fun _ -> backtrace) failure;
    }
  in
  QCheck.Test.make ~name:"manifest: rows written then parsed back are the rows" ~count:200
    (QCheck.make (list_size (int_bound 8) row))
    (fun rows ->
      let m =
        {
          Manifest.r_experiment = "qcheck";
          r_seed = 1;
          r_scale = 0.02;
          r_jobs = 2;
          r_timing = true;
          r_binaries = List.length rows;
          r_functions = 0;
          r_quarantined = 0;
          r_trace = Some "t \"1\".jsonl";
          rows;
        }
      in
      Manifest.parse (read_back (fun oc -> Manifest.write oc m)) = Ok m)

(* ------------------------------------------------------------------ *)
(* Diff semantics                                                     *)
(* ------------------------------------------------------------------ *)

let row ?(status = "ok") ?(total = 1.0) ?(phases = []) ~program ~digest () =
  {
    Manifest.p_suite = "s";
    p_program = program;
    p_config = "c";
    p_arch = "x64";
    p_digest = digest;
    p_text_bytes = 100;
    p_insns = 10;
    p_resyncs = 0;
    p_truth = 5;
    p_status = status;
    p_total_ms = total;
    p_phases = phases;
    p_error = None;
    p_backtrace = None;
  }

let run_of rows =
  {
    Manifest.r_experiment = "fake";
    r_seed = 1;
    r_scale = 1.0;
    r_jobs = 1;
    r_timing = false;
    r_binaries = List.length rows;
    r_functions = 0;
    r_quarantined = 0;
    r_trace = None;
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
    (contains rendered (Manifest.digest ma.Manifest.rows));
  (* The render must stay byte-identical across schedulers, so it never
     mentions jobs or input paths. *)
  check Alcotest.bool "render omits scheduler knobs" false (contains rendered "jobs")

let test_diff_detects_changes () =
  let old_run =
    run_of [ row ~program:"a" ~digest:"d1" (); row ~program:"b" ~digest:"d2" () ]
  in
  let new_run =
    run_of
      [ row ~program:"a" ~digest:"d1" ~status:"quarantined" (); row ~program:"c" ~digest:"d3" () ]
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

let test_diff_timing_axis () =
  let old_run =
    run_of
      [
        row ~program:"a" ~digest:"d1" ~total:100.0 ~phases:[ ("funseeker", 10.0) ] ();
        row ~program:"b" ~digest:"d2" ~total:0.0 ();
      ]
  and new_run =
    run_of
      [
        row ~program:"a" ~digest:"d1" ~total:150.0 ~phases:[ ("funseeker", 2.0) ] ();
        row ~program:"b" ~digest:"d2" ~total:50.0 ();
      ]
  in
  let d = Analyze.diff ~old_run ~new_run () in
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
        row
          ~program:(Printf.sprintf "p%02d" i)
          ~digest:(Printf.sprintf "d%02d" i)
          ~total:10.0 ~phases:(phases 10.0) ())
    @ [
        row ~program:"whale" ~digest:"dw" ~total:100.0 ~phases:(phases 100.0) ();
        (* A quarantined row with an absurd time must not poison the
           baseline — nor be reported as an anomaly itself. *)
        row ~program:"q" ~digest:"dq" ~status:"quarantined" ~total:0.5 ~phases:(phases 0.5) ();
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
    (List.hd excluded).Manifest.p_status;
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

(* The trace reader reads JSON lines only: a Chrome trace-event array
   (what `cetstat chrome` prints, one line or many) is refused by name,
   not read as a trace without spans. *)
let test_chrome_array_refused () =
  let one_line =
    {|[{"ph":"X","tid":3,"pid":1,"name":"harness.binary","ts":1.5,"dur":2000.0}]|}
  in
  check Alcotest.(result pass string) "one-line array refused"
    (Error "trace row is not a JSON object (not a JSON-lines trace?)")
    (Result.map ignore (Trace.parse one_line));
  let many_lines =
    {|[{"name":"harness.binary","ph":"X","ts":1.500,"dur":2000.000,"pid":0,"tid":3},
{"name":"elf.read","ph":"X","ts":2.000,"dur":1.000,"pid":0,"tid":3}]|}
  in
  check Alcotest.bool "multi-line array refused" true
    (Result.is_error (Trace.parse many_lines))

(* `cetstat chrome`: one complete event per JSON-lines span, in file
   order, named after it, on its sheet's track, in microseconds. *)
let test_chrome_conversion () =
  match Trace.parse jsonl_trace with
  | Error e -> Alcotest.failf "jsonl trace rejected: %s" e
  | Ok t ->
    let chrome = Trace.to_chrome t in
    let events =
      match Jz.parse chrome with
      | Ok (Jz.List l) -> l
      | Ok _ -> Alcotest.fail "not a JSON array"
      | Error e -> Alcotest.failf "conversion does not parse: %s" e
    in
    check Alcotest.int "one event per span" (List.length t.Trace.spans) (List.length events);
    List.iter2
      (fun (s : Trace.span) e ->
        let get name conv = Option.bind (Jz.member name e) conv in
        check Alcotest.(option string) "complete event" (Some "X") (get "ph" Jz.str);
        check Alcotest.(option string) "name" (Some s.Trace.t_name) (get "name" Jz.str);
        check Alcotest.(option int) "tid = sheet" (Some s.Trace.t_sheet) (get "tid" Jz.int);
        check
          Alcotest.(option (float 1e-9))
          "ts = start_ns / 1e3"
          (Some (float_of_int s.Trace.t_start_ns /. 1e3))
          (get "ts" Jz.num);
        check
          Alcotest.(option (float 1e-9))
          "dur = dur_ns / 1e3"
          (Some (float_of_int s.Trace.t_dur_ns /. 1e3))
          (get "dur" Jz.num))
      t.Trace.spans events;
    check Alcotest.(list string) "file order"
      [ "harness.binary"; "harness.binary"; "funseeker.analyze" ]
      (List.filter_map (fun e -> Option.bind (Jz.member "name" e) Jz.str) events);
    check Alcotest.string "no spans, empty array" "[]\n"
      (Trace.to_chrome { t with Trace.spans = [] })

let test_phase_stats () =
  let rows =
    [
      row ~program:"a" ~digest:"d1" ~total:3.0
        ~phases:[ ("funseeker", 1.0); ("ida", 2.0) ] ();
      row ~program:"b" ~digest:"d2" ~total:5.0
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
   the manifest's rows alone.  The quantiles come from log-bucketed
   histograms, so they are exact only to within a bucket; the mean, the
   total, the row count and the max are exact. *)
let test_phase_stats_quantiles () =
  let rows =
    List.init 100 (fun i ->
        let ms = float_of_int (i + 1) in
        let phases = ("funseeker", ms) :: (if i mod 2 = 0 then [ ("ida", 2.0 *. ms) ] else []) in
        row ~program:(string_of_int i) ~digest:(string_of_int i) ~total:(3.0 *. ms) ~phases ())
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
        Alcotest.test_case "schema-2 manifest rejected by name" `Quick test_schema2_rejected;
        Alcotest.test_case "profile JSONL round-trip" `Quick
          test_profiles_reader_round_trip;
        QCheck_alcotest.to_alcotest qcheck_manifest_round_trip;
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
        Alcotest.test_case "chrome array is not a JSON-lines trace" `Quick
          test_chrome_array_refused;
        Alcotest.test_case "chrome conversion: one X event per span" `Quick
          test_chrome_conversion;
        Alcotest.test_case "phase stats" `Quick test_phase_stats;
        Alcotest.test_case "phase stats: p50, p99 and max per tool" `Quick
          test_phase_stats_quantiles;
      ] );
  ]
