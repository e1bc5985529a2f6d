(* Tests for cet_telemetry: histogram quantile edges, merge associativity
   across simulated worker sheets, span nesting, and the determinism
   contract of the --stats report (byte-identical across ~jobs). *)

module Hist = Cet_telemetry.Hist
module Registry = Cet_telemetry.Registry
module Span = Cet_telemetry.Span
module Report = Cet_telemetry.Report
module Harness = Cet_eval.Harness

let check = Alcotest.check

(* Every test leaves the global registry disabled and empty, whatever
   happened, so telemetry state never leaks across the suite. *)
let with_clean_registry f =
  Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Histogram                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let h = Hist.create () in
  check Alcotest.int "count" 0 (Hist.count h);
  check Alcotest.(option int) "quantile of empty" None (Hist.quantile h 0.5);
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Hist.mean h);
  check Alcotest.int "min of empty" 0 (Hist.min_value h)

let test_hist_single_sample () =
  let h = Hist.create () in
  Hist.add h 12345;
  (* A single sample is exact at every quantile: the log-bucket estimate
     must clamp to the observed min = max. *)
  List.iter
    (fun q ->
      check Alcotest.(option int)
        (Printf.sprintf "q=%.2f" q)
        (Some 12345) (Hist.quantile h q))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
  check Alcotest.int "min" 12345 (Hist.min_value h);
  check Alcotest.int "max" 12345 (Hist.max_value h);
  check (Alcotest.float 1e-9) "mean" 12345.0 (Hist.mean h)

let test_hist_all_equal () =
  let h = Hist.create () in
  for _ = 1 to 100 do
    Hist.add h 777
  done;
  List.iter
    (fun q ->
      check Alcotest.(option int)
        (Printf.sprintf "q=%.2f" q)
        (Some 777) (Hist.quantile h q))
    [ 0.0; 0.5; 1.0 ];
  check Alcotest.int "sum" 77700 (Hist.sum h)

let test_hist_zero_and_negative () =
  let h = Hist.create () in
  Hist.add h 0;
  Hist.add h (-5);
  (* negatives clamp to 0 *)
  check Alcotest.int "count" 2 (Hist.count h);
  check Alcotest.(option int) "quantile" (Some 0) (Hist.quantile h 0.5)

let test_hist_quantile_ordering () =
  let h = Hist.create () in
  (* Two well-separated populations: the median must land in the low one
     and the p99 in the high one, whatever the bucket estimates are. *)
  for _ = 1 to 90 do
    Hist.add h 100
  done;
  for _ = 1 to 10 do
    Hist.add h 1_000_000
  done;
  let q50 = Option.get (Hist.quantile h 0.5) in
  let q99 = Option.get (Hist.quantile h 0.99) in
  check Alcotest.bool "p50 in low population" true (q50 < 1000);
  check Alcotest.bool "p99 in high population" true (q99 > 100_000);
  check Alcotest.bool "p99 clamped to max" true (q99 <= 1_000_000)

let hist_fingerprint h =
  ( Hist.count h,
    Hist.sum h,
    Hist.min_value h,
    Hist.max_value h,
    List.map (Hist.quantile h) [ 0.25; 0.5; 0.9; 0.99 ] )

let test_hist_merge_associative () =
  let mk samples =
    let h = Hist.create () in
    List.iter (Hist.add h) samples;
    h
  in
  let sa = [ 1; 50; 2_000 ] and sb = [ 7; 7; 7; 900_000 ] and sc = [ 123_456 ] in
  (* (a + b) + c *)
  let left = mk sa in
  let ab = mk sb in
  Hist.merge left ab;
  Hist.merge left (mk sc);
  (* a + (b + c) *)
  let bc = mk sb in
  Hist.merge bc (mk sc);
  let right = mk sa in
  Hist.merge right bc;
  check Alcotest.bool "merge associativity" true
    (hist_fingerprint left = hist_fingerprint right);
  check Alcotest.int "merged count" 8 (Hist.count left);
  check Alcotest.int "merged min" 1 (Hist.min_value left);
  check Alcotest.int "merged max" 900_000 (Hist.max_value left)

(* ------------------------------------------------------------------ *)
(* Counter merge across simulated worker sheets                       *)
(* ------------------------------------------------------------------ *)

let sheet_with counters =
  let s = Registry.create () in
  List.iter
    (fun (name, n) ->
      match Hashtbl.find_opt s.Registry.counters name with
      | Some c -> c.Registry.n <- c.Registry.n + n
      | None -> Hashtbl.replace s.Registry.counters name { Registry.n })
    counters;
  s

let counters_of s =
  Hashtbl.fold (fun k (c : Registry.counter) acc -> (k, c.n) :: acc) s.Registry.counters []
  |> List.sort compare

let test_counter_merge_associative () =
  let mk () =
    ( sheet_with [ ("binaries", 3); ("endbr", 100) ],
      sheet_with [ ("binaries", 5); ("resyncs", 2) ],
      sheet_with [ ("endbr", 41); ("resyncs", 1) ] )
  in
  (* (a + b) + c — merge into a fresh target, like Report does. *)
  let a, b, c = mk () in
  let left = Registry.create () in
  Registry.merge left a;
  Registry.merge left b;
  Registry.merge left c;
  (* a + (b + c) *)
  let a, b, c = mk () in
  let bc = Registry.create () in
  Registry.merge bc b;
  Registry.merge bc c;
  let right = Registry.create () in
  Registry.merge right a;
  Registry.merge right bc;
  check
    Alcotest.(list (pair string int))
    "counter merge associativity" (counters_of left) (counters_of right);
  check
    Alcotest.(list (pair string int))
    "expected totals"
    [ ("binaries", 8); ("endbr", 141); ("resyncs", 3) ]
    (counters_of left)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let span_metric name =
  Hashtbl.find_opt (Registry.ambient ()).Registry.spans name

let test_span_nesting () =
  with_clean_registry (fun () ->
      Registry.enable ~trace:true ();
      let inner_ran = ref 0 in
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" (fun () -> incr inner_ran);
          Span.with_ ~name:"inner" (fun () -> incr inner_ran));
      check Alcotest.int "inner body ran twice" 2 !inner_ran;
      let outer = Option.get (span_metric "outer") in
      let inner = Option.get (span_metric "inner") in
      check Alcotest.int "outer calls" 1 (Hist.count outer.Registry.hist);
      check Alcotest.int "inner calls" 2 (Hist.count inner.Registry.hist);
      (* Nested time is attributed to the parent's child_ns, so the
         parent's self time stays non-negative and the inner total is
         bounded by the outer total. *)
      check Alcotest.bool "inner total <= outer total" true
        (Hist.sum inner.Registry.hist <= Hist.sum outer.Registry.hist);
      check Alcotest.bool "outer child covers inner" true
        (outer.Registry.child_ns >= Hist.sum inner.Registry.hist);
      check Alcotest.int "inner leaf has no children" 0 inner.Registry.child_ns;
      (* Trace events carry the nesting depth. *)
      let events = (Registry.ambient ()).Registry.events in
      let depth name =
        List.filter_map
          (fun (e : Registry.event) ->
            if e.ev_name = name then Some e.ev_depth else None)
          events
      in
      check Alcotest.(list int) "outer depth" [ 0 ] (depth "outer");
      check Alcotest.(list int) "inner depths" [ 1; 1 ] (depth "inner");
      check Alcotest.int "stack drained" 0
        (List.length (Registry.ambient ()).Registry.stack))

let test_span_disabled_records_nothing () =
  with_clean_registry (fun () ->
      check Alcotest.bool "disabled" false (Span.enabled ());
      Span.with_ ~name:"ghost" (fun () -> ());
      Registry.count "ghost.counter";
      check Alcotest.bool "no span" true (span_metric "ghost" = None);
      check Alcotest.int "no counter" 0
        (Registry.find_counter (Registry.ambient ()) "ghost.counter"))

let test_span_exception_closes () =
  with_clean_registry (fun () ->
      Registry.enable ();
      (try Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
      let m = Option.get (span_metric "boom") in
      check Alcotest.int "span recorded despite raise" 1 (Hist.count m.Registry.hist);
      check Alcotest.int "stack drained" 0
        (List.length (Registry.ambient ()).Registry.stack))

(* ------------------------------------------------------------------ *)
(* Report determinism across ~jobs                                    *)
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
    { Cet_compiler.Options.default with Cet_compiler.Options.compiler = Cet_compiler.Options.Clang };
  ]

let stats_report ~jobs =
  Registry.reset ();
  let _ =
    Harness.run ~profiles:[ micro_profile ] ~configs:micro_configs ~jobs
      { Harness.default_options with Harness.seed = 11; scale = 1.0; timing = false }
  in
  Report.render ~timing:false ()

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_stats_identical_across_jobs () =
  with_clean_registry (fun () ->
      Registry.enable ();
      let seq = stats_report ~jobs:1 in
      let par = stats_report ~jobs:4 in
      check Alcotest.string "--stats report byte-identical (timing zeroed)" seq par;
      (* and it actually says something *)
      check Alcotest.bool "binaries counted" true (contains seq "harness.binaries");
      check Alcotest.bool "analysis spans present" true
        (contains seq "funseeker.analyze"))

(* Steals count scheduling decisions, which vary from run to run: the
   deterministic report leaves them out, the timed one keeps them, and
   work counters stay in both. *)
let test_schedule_counters_timing_only () =
  with_clean_registry (fun () ->
      Registry.enable ();
      List.iter
        (fun name -> Registry.count name)
        [ "scheduler.steals"; "harness.binaries" ];
      let plain = Report.render ~timing:false () in
      let timed = Report.render ~timing:true () in
      check Alcotest.bool "steals left out" false (contains plain "scheduler.steals");
      check Alcotest.bool "work counters kept" true (contains plain "harness.binaries");
      check Alcotest.bool "timed keeps steals" true (contains timed "scheduler.steals"))

(* ------------------------------------------------------------------ *)
(* Report edge cases and the chrome conversion of the trace           *)
(* ------------------------------------------------------------------ *)

(* A phase with zero samples (merged from a sheet that created the metric
   but never closed a span) must render [-] in the mean/quantile columns,
   not a fabricated 0.000. *)
let test_render_zero_sample_phase () =
  with_clean_registry (fun () ->
      Registry.enable ();
      Hashtbl.replace (Registry.ambient ()).Registry.spans "ghost.phase"
        { Registry.hist = Hist.create (); child_ns = 0 };
      let out = Report.render ~timing:true () in
      check Alcotest.bool "phase row present" true (contains out "ghost.phase");
      check Alcotest.bool "quantile columns render '-'" true
        (contains out "-          -          -"))

(* No spans at all: the phase table (header and self-time line) must be
   omitted entirely, not rendered bare. *)
let test_render_omits_empty_phase_table () =
  with_clean_registry (fun () ->
      Registry.enable ();
      Registry.count "lonely.counter";
      let out = Report.render ~timing:true () in
      check Alcotest.bool "no bare phase header" false
        (contains out "phase breakdown");
      check Alcotest.bool "no self-time line" false (contains out "self-time sum");
      check Alcotest.bool "counters still render" true
        (contains out "lonely.counter"))

(* The trace's spans reach Chrome's format through the JSON-lines trace:
   `cetstat chrome` converts what [Report.write_trace] wrote. *)
let test_chrome_trace () =
  with_clean_registry (fun () ->
      Registry.enable ~trace:true ();
      Span.with_ ~name:"outer" (fun () -> Span.with_ ~name:"inner" (fun () -> ()));
      let path = Filename.temp_file "cet-trace" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          Out_channel.with_open_bin path Report.write_trace;
          let trace =
            match Cet_obs.Trace.load path with
            | Ok t -> t
            | Error e -> Alcotest.failf "trace does not read back: %s" e
          in
          let body = Cet_obs.Trace.to_chrome trace in
          check Alcotest.bool "starts as a JSON array" true (String.length body > 0 && body.[0] = '[');
          check Alcotest.bool "complete events" true (contains body "\"ph\":\"X\"");
          check Alcotest.bool "microsecond timestamps" true (contains body "\"ts\":");
          check Alcotest.bool "span names survive" true (contains body "\"name\":\"inner\"");
          check Alcotest.bool "array is closed" true
            (String.length body >= 2 && body.[String.length body - 2] = ']')))

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "hist: empty" `Quick test_hist_empty;
        Alcotest.test_case "hist: single sample exact" `Quick test_hist_single_sample;
        Alcotest.test_case "hist: all-equal exact" `Quick test_hist_all_equal;
        Alcotest.test_case "hist: zero and negative" `Quick test_hist_zero_and_negative;
        Alcotest.test_case "hist: quantile ordering" `Quick test_hist_quantile_ordering;
        Alcotest.test_case "hist: merge associative" `Quick test_hist_merge_associative;
        Alcotest.test_case "counters: merge associative" `Quick
          test_counter_merge_associative;
        Alcotest.test_case "span: nesting" `Quick test_span_nesting;
        Alcotest.test_case "span: disabled is inert" `Quick
          test_span_disabled_records_nothing;
        Alcotest.test_case "span: exception closes" `Quick test_span_exception_closes;
        Alcotest.test_case "report: byte-identical across jobs" `Quick
          test_stats_identical_across_jobs;
        Alcotest.test_case "report: zero-sample phase renders '-'" `Quick
          test_render_zero_sample_phase;
        Alcotest.test_case "report: empty phase table omitted" `Quick
          test_render_omits_empty_phase_table;
        Alcotest.test_case "trace: chrome format" `Quick test_chrome_trace;
        Alcotest.test_case "report: scheduling counters only when timed" `Quick
          test_schedule_counters_timing_only;
      ] );
  ]
