(* Tests for the observability layer (per-binary profiles, OpenMetrics
   export, the Chrome conversion of a run's trace, the scheduler
   bridge): the zero-allocation disabled paths, profile determinism
   across ~jobs, the quarantined profile row, the exposition-format
   grammar, the top-slow ranking, histogram bucket edges, and steal
   counting. *)

module Hist = Cet_telemetry.Hist
module Registry = Cet_telemetry.Registry
module Span = Cet_telemetry.Span
module Report = Cet_telemetry.Report
module Harness = Cet_eval.Harness
module Bridge = Cet_telemetry.Bridge
module W = Cet_util.Work_queue
module Jz = Cet_util.Jsonl

let check = Alcotest.check

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Every test leaves the registry off and empty, whatever happened, so
   observability state never leaks across the suite (the registry is
   process-global). *)
let with_clean f =
  Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ())
    f

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
(* Disabled paths: zero allocation                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_paths_zero_alloc () =
  with_clean (fun () ->
      check Alcotest.bool "registry disabled" false (Registry.enabled ());
      check Alcotest.bool "no deadline armed" false (Cet_util.Deadline.active ());
      let w0 = Gc.minor_words () in
      for _ = 0 to 49_999 do
        Registry.count "never";
        Cet_util.Deadline.check "never"
      done;
      let dw = Gc.minor_words () -. w0 in
      (* The budget absorbs the Gc.minor_words probes themselves; 50k
         guarded calls must contribute nothing. *)
      if dw > 100.0 then
        Alcotest.failf "disabled observability path allocated %.0f minor words" dw)

(* ------------------------------------------------------------------ *)
(* Harness integration: profiles, the quarantined row                 *)
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

let run_harness ?(profile = false) ?fault ~jobs () =
  Harness.run ~profiles:[ micro_profile ] ~configs:micro_configs ~jobs
    {
      Harness.default_options with
      Harness.seed = 11;
      scale = 1.0;
      timing = false;
      profile;
      fault;
    }

let profiles_report ~jobs =
  let r = run_harness ~profile:true ~jobs () in
  (r, Run_file.rows r)

let test_profiles_deterministic_across_jobs () =
  let r1, seq = profiles_report ~jobs:1 in
  let _, par = profiles_report ~jobs:4 in
  check Alcotest.string "manifest rows byte-identical across jobs" seq par;
  check Alcotest.int "one row per binary" r1.Harness.binaries
    (List.length r1.Harness.profiles);
  List.iter
    (fun (p : Harness.profile) ->
      check Alcotest.string "status" "ok" p.Harness.p_status;
      check (Alcotest.float 0.0) "timing off zeroes the clock" 0.0
        p.Harness.p_total_ms;
      check Alcotest.bool "decode volume present" true (p.Harness.p_insns > 0);
      check
        Alcotest.(list string)
        "fixed phase vocabulary" Harness.profile_phase_names
        (List.map fst p.Harness.p_phases))
    r1.Harness.profiles;
  List.iter
    (fun line ->
      if line <> "" then begin
        check Alcotest.bool "row is a json object" true
          (line.[0] = '{' && line.[String.length line - 1] = '}');
        check Alcotest.bool "keys in fixed order" true
          (contains line "\"suite\":" && contains line "\"phases\":{")
      end)
    (String.split_on_char '\n' seq)

let test_quarantine_zeroed_profile () =
  let fault (b : Cet_corpus.Dataset.binary) =
    b.Cet_corpus.Dataset.program = "coreutils_001"
  in
  let r = run_harness ~profile:true ~fault ~jobs:1 () in
  check Alcotest.int "two configs quarantined" 2 (List.length r.Harness.failures);
  (* Quarantined binaries still get a (zeroed) profile row. *)
  let quarantined =
    List.filter
      (fun (p : Harness.profile) -> p.Harness.p_status = "quarantined")
      r.Harness.profiles
  in
  check Alcotest.int "quarantined profile rows" 2 (List.length quarantined);
  List.iter
    (fun (p : Harness.profile) ->
      check Alcotest.int "no decode volume claimed" 0 p.Harness.p_insns)
    quarantined;
  (* The slow table ranks by total time and renders. *)
  let top = Harness.top_slow r 3 in
  check Alcotest.bool "top-slow bounded" true (List.length top <= 3);
  let rec sorted = function
    | (a : Harness.profile) :: (b :: _ as rest) ->
      a.Harness.p_total_ms >= b.Harness.p_total_ms && sorted rest
    | _ -> true
  in
  check Alcotest.bool "top-slow sorted desc" true (sorted top);
  check Alcotest.bool "top-slow renders" true
    (contains (Harness.render_top_slow r 3) "SLOWEST BINARIES")

let test_ewma () =
  check (Alcotest.float 1e-9) "no history passes through" 5.0
    (Harness.ewma_update ~alpha:0.3 ~prev:None 5.0);
  check (Alcotest.float 1e-9) "blend" 15.0
    (Harness.ewma_update ~alpha:0.5 ~prev:(Some 10.0) 20.0);
  let rec converge prev n =
    if n = 0 then prev
    else converge (Harness.ewma_update ~alpha:0.3 ~prev:(Some prev) 100.0) (n - 1)
  in
  check Alcotest.bool "converges to a constant input" true
    (Float.abs (converge 0.0 50 -. 100.0) < 0.01)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition grammar                                     *)
(* ------------------------------------------------------------------ *)

(* Parse the exposition back: every sample belongs to a declared family,
   histogram buckets are cumulative-monotone with increasing [le] edges,
   +Inf equals _count, and the file is terminated.  This is the same
   check `make check` runs from the outside via the smoke rule. *)
let test_openmetrics_grammar () =
  with_clean (fun () ->
      Registry.enable ();
      Registry.count "harness.binaries";
      Registry.count "harness.binaries";
      Registry.gauge_set "corpus.scale" 1.0;
      Span.with_ ~name:"funseeker.analyze" (fun () ->
          Span.with_ ~name:"elf.read" (fun () -> ignore (Sys.opaque_identity 1)));
      Span.with_ ~name:"funseeker.analyze" (fun () -> ());
      let body = read_back Report.write_openmetrics in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
      in
      check Alcotest.string "terminated" "# EOF" (List.nth lines (List.length lines - 1));
      let types = Hashtbl.create 8 in
      List.iter
        (fun l ->
          match String.split_on_char ' ' l with
          | [ "#"; "TYPE"; name; ty ] -> Hashtbl.replace types name ty
          | _ -> ())
        lines;
      check Alcotest.bool "counter family declared" true
        (Hashtbl.find_opt types "cet_harness_binaries" = Some "counter");
      check Alcotest.bool "gauge family declared" true
        (Hashtbl.find_opt types "cet_corpus_scale" = Some "gauge");
      check Alcotest.bool "histogram family declared" true
        (Hashtbl.find_opt types "cet_phase_funseeker_analyze_seconds"
        = Some "histogram");
      let valid_name n =
        n <> ""
        && String.for_all
             (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
             n
      in
      (* Every sample line resolves to a declared family. *)
      let sample_lines =
        List.filter (fun l -> String.length l > 0 && l.[0] <> '#') lines
      in
      check Alcotest.bool "samples present" true (sample_lines <> []);
      List.iter
        (fun l ->
          let name =
            match String.index_opt l '{' with
            | Some i -> String.sub l 0 i
            | None -> (
              match String.index_opt l ' ' with
              | Some i -> String.sub l 0 i
              | None -> l)
          in
          check Alcotest.bool (Printf.sprintf "valid metric name %S" name) true
            (valid_name name);
          let strip suffix n =
            let ln = String.length n and ls = String.length suffix in
            if ln >= ls && String.sub n (ln - ls) ls = suffix then
              Some (String.sub n 0 (ln - ls))
            else None
          in
          let family_declared =
            Hashtbl.mem types name
            || List.exists
                 (fun s ->
                   match strip s name with
                   | Some base -> Hashtbl.mem types base
                   | None -> false)
                 [ "_total"; "_bucket"; "_sum"; "_count" ]
          in
          check Alcotest.bool (Printf.sprintf "family declared for %S" name) true
            family_declared)
        sample_lines;
      (* Histogram internal consistency for the two-sample phase. *)
      let fam = "cet_phase_funseeker_analyze_seconds" in
      let float_after_brace l =
        match String.index_opt l '}' with
        | Some i ->
          float_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> Alcotest.failf "malformed sample %S" l
      in
      let le_of l =
        let marker = "le=\"" in
        let rec find i =
          if i + String.length marker > String.length l then
            Alcotest.failf "no le label in %S" l
          else if String.sub l i (String.length marker) = marker then
            i + String.length marker
          else find (i + 1)
        in
        let s = find 0 in
        let e = String.index_from l s '"' in
        String.sub l s (e - s)
      in
      let buckets =
        List.filter
          (fun l -> String.length l > 0 && l.[0] <> '#' && contains l (fam ^ "_bucket{"))
          lines
      in
      check Alcotest.bool "buckets emitted" true (List.length buckets >= 2);
      let counts = List.map float_after_brace buckets in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      check Alcotest.bool "cumulative buckets monotone" true (monotone counts);
      let les = List.map le_of buckets in
      check Alcotest.string "last bucket is +Inf" "+Inf"
        (List.nth les (List.length les - 1));
      let finite =
        List.filter_map
          (fun s -> if s = "+Inf" then None else Some (float_of_string s))
          les
      in
      check Alcotest.bool "le edges strictly increasing" true
        (let rec inc = function
           | a :: (b :: _ as rest) -> a < b && inc rest
           | _ -> true
         in
         inc finite);
      let value_of suffix =
        match
          List.find_opt
            (fun l ->
              String.length l > 0 && l.[0] <> '#'
              && (match String.index_opt l ' ' with
                 | Some i -> String.sub l 0 i = fam ^ suffix
                 | None -> false))
            lines
        with
        | Some l ->
          let i = String.index l ' ' in
          float_of_string (String.trim (String.sub l i (String.length l - i)))
        | None -> Alcotest.failf "missing %s%s" fam suffix
      in
      check (Alcotest.float 1e-9) "+Inf bucket equals _count" (value_of "_count")
        (List.nth counts (List.length counts - 1));
      check (Alcotest.float 1e-9) "two samples counted" 2.0 (value_of "_count");
      check Alcotest.bool "_sum non-negative" true (value_of "_sum" >= 0.0))

(* ------------------------------------------------------------------ *)
(* The Chrome conversion                                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_complete_spans () =
  (* The Chrome conversion of the trace of a run with quarantined
     binaries holds one complete ("X") event per recorded span and
     nothing else, and one [harness.binary] event per evaluated binary:
     a quarantined binary fails before its span opens. *)
  with_clean (fun () ->
      Registry.enable ~trace:true ();
      let fault (b : Cet_corpus.Dataset.binary) = b.Cet_corpus.Dataset.program = "coreutils_001" in
      let r = run_harness ~fault ~jobs:2 () in
      check Alcotest.int "two configs quarantined" 2 (List.length r.Harness.failures);
      let t =
        match Cet_obs.Trace.parse (read_back Report.write_trace) with
        | Ok t -> t
        | Error e -> Alcotest.failf "trace reader refused the trace: %s" e
      in
      let events =
        match Jz.parse (Cet_obs.Trace.to_chrome t) with
        | Ok (Jz.List l) -> l
        | Ok _ -> Alcotest.fail "the conversion is not a JSON array"
        | Error e -> Alcotest.failf "the conversion does not parse: %s" e
      in
      check Alcotest.bool "events written" true (events <> []);
      List.iter
        (fun e ->
          check Alcotest.(option string) "complete event" (Some "X")
            (Option.bind (Jz.member "ph" e) Jz.str))
        events;
      check Alcotest.int "every span converted" (List.length t.Cet_obs.Trace.spans)
        (List.length events);
      check Alcotest.int "one harness.binary event per evaluated binary" r.Harness.binaries
        (List.length
           (List.filter
              (fun e -> Option.bind (Jz.member "name" e) Jz.str = Some "harness.binary")
              events)))

(* ------------------------------------------------------------------ *)
(* The scheduler bridge                                               *)
(* ------------------------------------------------------------------ *)

let steals_counted () = Registry.find_counter (Registry.merged ()) "scheduler.steals"

let test_bridge_counts_each_steal () =
  (* One count per event while the registry is on; nothing, and no
     allocation, while it is off. *)
  with_clean (fun () ->
      let steal = W.Steal { thief = 1; victim = 0 } in
      let w0 = Gc.minor_words () in
      for _ = 1 to 50_000 do
        Bridge.scheduler_observer steal
      done;
      let dw = Gc.minor_words () -. w0 in
      if dw > 100.0 then Alcotest.failf "disabled bridge allocated %.0f minor words" dw;
      check Alcotest.int "disabled: nothing counted" 0 (steals_counted ());
      Registry.enable ();
      for _ = 1 to 3 do
        Bridge.scheduler_observer steal
      done;
      check Alcotest.int "enabled: one per event" 3 (steals_counted ()))

let test_bridge_counts_pool_steals () =
  (* Installed on a pool, the bridge counts on the worker domains that
     steal, and the merged registry agrees with the pool's own count. *)
  with_clean (fun () ->
      Registry.enable ();
      let t = W.create ~observer:Bridge.scheduler_observer (W.config ~jobs:2 ()) in
      let caller = Domain.self () in
      let f k =
        (* The caller holds its items until the worker has stolen one. *)
        if Domain.self () = caller then begin
          let t0 = Unix.gettimeofday () in
          while (W.stats t).W.s_steals = 0 && Unix.gettimeofday () -. t0 < 10.0 do
            Domain.cpu_relax ()
          done
        end;
        k
      in
      check Alcotest.(array int) "results" (Array.init 6 Fun.id) (W.map t 6 f);
      let steals = (W.stats t).W.s_steals in
      check Alcotest.bool "the worker stole" true (steals > 0);
      check Alcotest.int "one count per steal" steals (steals_counted ()))

(* ------------------------------------------------------------------ *)
(* Histogram bucket edges                                             *)
(* ------------------------------------------------------------------ *)

let test_hist_bucket_edges () =
  (* The exported bucket geometry must be self-consistent: upper bounds
     strictly increase, and each bound is the last value of its bucket.
     With 63-bit ints the last two buckets both clamp to max_int (no
     OCaml int is large enough to reach bucket 62), so strictness holds
     only up to bucket 60. *)
  for i = 0 to Hist.nbuckets - 3 do
    let ub = Hist.bucket_upper_bound i in
    check Alcotest.bool "bounds strictly increase" true
      (ub < Hist.bucket_upper_bound (i + 1));
    check Alcotest.int (Printf.sprintf "bound %d lands in its bucket" i) i
      (Hist.bucket_of ub);
    check Alcotest.int
      (Printf.sprintf "bound %d + 1 lands in the next" i)
      (i + 1)
      (Hist.bucket_of (ub + 1))
  done;
  check Alcotest.int "top bound clamps to max_int" max_int
    (Hist.bucket_upper_bound (Hist.nbuckets - 1));
  check Alcotest.int "penultimate bound also clamps" max_int
    (Hist.bucket_upper_bound (Hist.nbuckets - 2));
  check Alcotest.int "max_int lands in the last reachable bucket"
    (Hist.nbuckets - 2)
    (Hist.bucket_of max_int);
  (* count=1 at a bucket edge: exact at every quantile (min = max clamp). *)
  let edge = Hist.bucket_upper_bound 5 in
  let h = Hist.create () in
  Hist.add h edge;
  List.iter
    (fun q ->
      check Alcotest.(option int)
        (Printf.sprintf "edge sample exact at q=%.2f" q)
        (Some edge) (Hist.quantile h q))
    [ 0.0; 0.5; 1.0 ];
  (* Top-bucket samples clamp to the observed max, not the bucket bound. *)
  let h = Hist.create () in
  Hist.add h 1;
  Hist.add h max_int;
  check Alcotest.(option int) "p100 clamps to observed max" (Some max_int)
    (Hist.quantile h 1.0);
  check Alcotest.(option int) "p0 clamps to observed min" (Some 1)
    (Hist.quantile h 0.0)

let hist_fingerprint h =
  ( Hist.count h,
    Hist.sum h,
    Hist.min_value h,
    Hist.max_value h,
    List.init Hist.nbuckets (Hist.bucket_count h) )

let hist_of samples =
  let h = Hist.create () in
  List.iter (Hist.add h) samples;
  h

let samples_gen =
  QCheck.list_of_size (QCheck.Gen.int_bound 40)
    (QCheck.int_bound 2_000_000_000)

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"hist merge commutes" ~count:200
    (QCheck.pair samples_gen samples_gen)
    (fun (sa, sb) ->
      let ab = hist_of sa in
      Hist.merge ab (hist_of sb);
      let ba = hist_of sb in
      Hist.merge ba (hist_of sa);
      hist_fingerprint ab = hist_fingerprint ba)

let qcheck_merge_associative =
  QCheck.Test.make ~name:"hist merge associates" ~count:200
    (QCheck.triple samples_gen samples_gen samples_gen)
    (fun (sa, sb, sc) ->
      let left = hist_of sa in
      Hist.merge left (hist_of sb);
      Hist.merge left (hist_of sc);
      let bc = hist_of sb in
      Hist.merge bc (hist_of sc);
      let right = hist_of sa in
      Hist.merge right bc;
      hist_fingerprint left = hist_fingerprint right)

let qcheck_bucket_contains =
  QCheck.Test.make ~name:"bucket_of respects its bounds" ~count:500
    QCheck.(map (fun i -> i land max_int) int)
    (fun v ->
      let b = Hist.bucket_of v in
      v <= Hist.bucket_upper_bound b
      && (b = 0 || v > Hist.bucket_upper_bound (b - 1)))

(* ------------------------------------------------------------------ *)
(* top-slow                                                           *)
(* ------------------------------------------------------------------ *)

let fake_profile ~total name =
  {
    Harness.p_suite = "s";
    p_program = name;
    p_config = "c";
    p_arch = "x64";
    p_digest = Harness.content_digest name;
    p_text_bytes = 0;
    p_insns = 0;
    p_resyncs = 0;
    p_truth = 0;
    p_status = "ok";
    p_total_ms = total;
    p_phases = [];
    p_error = None;
    p_backtrace = None;
  }

let fake_results profiles =
  {
    Harness.table1 = Cet_eval.Tables.Table1.create ();
    fig3 = Cet_eval.Tables.Fig3.create ();
    table2 = Cet_eval.Tables.Table2.create ();
    table3 = Cet_eval.Tables.Table3.create ();
    triage = Cet_eval.Tables.Triage.create ();
    binaries = List.length profiles;
    functions = 0;
    failures = [];
    profiles;
  }

(* The slowest rows first; rows of equal cost keep plan order, so the
   table is the same on every run of the same rows. *)
let test_top_slow_ranking () =
  let r =
    fake_results
      [
        fake_profile ~total:1.0 "hare";
        fake_profile ~total:5.0 "tortoise";
        fake_profile ~total:3.0 "first-tie";
        fake_profile ~total:9.0 "sloth";
        fake_profile ~total:3.0 "second-tie";
      ]
  in
  let ranked k = List.map (fun p -> p.Harness.p_program) (Harness.top_slow r k) in
  check Alcotest.(list string) "by total_ms, ties in plan order"
    [ "sloth"; "tortoise"; "first-tie"; "second-tie"; "hare" ]
    (ranked 10);
  check Alcotest.(list string) "cut at k" [ "sloth"; "tortoise"; "first-tie" ] (ranked 3);
  check Alcotest.(list string) "k = 0" [] (ranked 0);
  let rendered = Harness.render_top_slow r 2 in
  check Alcotest.bool "header counts the profiled rows" true
    (contains rendered "SLOWEST BINARIES (top 2 of 5 profiled)");
  check Alcotest.bool "ranked rows shown" true (contains rendered "s/sloth");
  check Alcotest.bool "rows past k left out" false (contains rendered "first-tie");
  check Alcotest.string "nothing profiled, nothing rendered" ""
    (Harness.render_top_slow (fake_results []) 3)

(* ------------------------------------------------------------------ *)
(* cet_run_info                                                       *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_run_info () =
  with_clean (fun () ->
      Registry.enable ();
      check Alcotest.string "backslash, quote, newline escaped"
        "a\\\\b\\\"c\\nd"
        (Report.openmetrics_label_escape "a\\b\"c\nd");
      let body =
        read_back
          (Report.write_openmetrics
             ~info:[ ("digest", "abc123"); ("seed", "2022") ])
      in
      check Alcotest.bool "info gauge emitted" true
        (contains body "# TYPE cet_run_info gauge");
      check Alcotest.bool "labels in given order" true
        (contains body "cet_run_info{digest=\"abc123\",seed=\"2022\"} 1");
      (* Without run identity the family is omitted entirely — no empty
         label set, no unlabeled constant. *)
      let bare = read_back Report.write_openmetrics in
      check Alcotest.bool "absent without info" false (contains bare "cet_run_info"))

let suite =
  [
    ( "observability",
      [
        Alcotest.test_case "disabled paths: zero allocation" `Quick
          test_disabled_paths_zero_alloc;
        Alcotest.test_case "profiles: deterministic across jobs" `Slow
          test_profiles_deterministic_across_jobs;
        Alcotest.test_case "quarantine: zeroed profile row" `Quick
          test_quarantine_zeroed_profile;
        Alcotest.test_case "progress: ewma" `Quick test_ewma;
        Alcotest.test_case "openmetrics: grammar round-trip" `Quick
          test_openmetrics_grammar;
        Alcotest.test_case "openmetrics: cet_run_info labels" `Quick
          test_openmetrics_run_info;
        Alcotest.test_case "top-slow: ranked by total_ms, ties in plan order" `Quick
          test_top_slow_ranking;
        Alcotest.test_case "trace: chrome trace holds complete spans only" `Quick
          test_chrome_trace_complete_spans;
        Alcotest.test_case "bridge: one count per steal event" `Quick
          test_bridge_counts_each_steal;
        Alcotest.test_case "bridge: a pool's steals reach the registry" `Quick
          test_bridge_counts_pool_steals;
        Alcotest.test_case "hist: bucket edges" `Quick test_hist_bucket_edges;
        QCheck_alcotest.to_alcotest qcheck_merge_commutative;
        QCheck_alcotest.to_alcotest qcheck_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_bucket_contains;
      ] );
  ]
