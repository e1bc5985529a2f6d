(* Tests for the observability layer (flight recorder, SLO gates,
   per-binary profiles, OpenMetrics export): ring semantics, the
   zero-allocation disabled paths, the SLO grammar and its fail-safe
   unmatched-key breach, profile determinism across ~jobs, the
   quarantine black box, the exposition-format grammar, the observer
   bridges in Deadline/Diag, and histogram bucket edges. *)

module Hist = Cet_telemetry.Hist
module Registry = Cet_telemetry.Registry
module Span = Cet_telemetry.Span
module Report = Cet_telemetry.Report
module Journal = Cet_telemetry.Journal
module Slo = Cet_telemetry.Slo
module Harness = Cet_eval.Harness

let check = Alcotest.check

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Every test leaves every global switch off and every store empty,
   whatever happened, so observability state never leaks across the
   suite (the registry/journal/SLO stores are process-global). *)
let with_clean f =
  Registry.reset ();
  Journal.reset ();
  Slo.reset ();
  Fun.protect
    ~finally:(fun () ->
      Registry.disable ();
      Journal.disable ();
      Slo.disable ();
      Cet_util.Deadline.set_observer None;
      Cet_util.Diag.Collector.set_observer None;
      Registry.reset ();
      Journal.reset ();
      Slo.reset ())
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
(* Journal ring semantics                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_drop_oldest () =
  let r = Journal.ring_create ~id:7 ~capacity:4 in
  for i = 1 to 6 do
    Journal.ring_record r ~kind:Journal.Diag ~name:(Printf.sprintf "e%d" i) ~v:i
  done;
  let names = List.map (fun e -> e.Journal.j_name) (Journal.ring_events r) in
  check Alcotest.(list string) "oldest two dropped, oldest first"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  check Alcotest.int "cursor counts every record" 6 r.Journal.r_next;
  List.iter
    (fun e -> check Alcotest.int "ring id stamped" 7 e.Journal.j_ring)
    (Journal.ring_events r)

let test_journal_record_recent_mark () =
  with_clean (fun () ->
      check Alcotest.(list pass) "disabled recent is empty" []
        (Journal.recent ());
      check Alcotest.int "disabled mark is 0" 0 (Journal.mark ());
      Journal.enable ();
      Journal.record Journal.Phase_begin "alpha";
      Journal.record ~v:42 Journal.Phase_end "alpha";
      let m = Journal.mark () in
      Journal.record Journal.Diag "elf/short-read";
      Journal.record Journal.Diag "eh/bad-lsda";
      Journal.record Journal.Quarantine "coreutils/x";
      let names = List.map (fun e -> e.Journal.j_name) (Journal.recent ()) in
      check Alcotest.(list string) "oldest first"
        [ "alpha"; "alpha"; "elf/short-read"; "eh/bad-lsda"; "coreutils/x" ]
        names;
      let last2 = List.map (fun e -> e.Journal.j_name) (Journal.recent ~n:2 ()) in
      check Alcotest.(list string) "recent ~n keeps the newest"
        [ "eh/bad-lsda"; "coreutils/x" ] last2;
      check Alcotest.int "diags since mark" 2
        (Journal.count_kind_since m Journal.Diag);
      check Alcotest.int "quarantines since mark" 1
        (Journal.count_kind_since m Journal.Quarantine);
      check Alcotest.int "nothing before mark counted" 0
        (Journal.count_kind_since m Journal.Phase_end);
      (* Timestamps are monotone within the ring. *)
      let ts = List.map (fun e -> e.Journal.j_ns) (Journal.recent ()) in
      check Alcotest.bool "monotone timestamps" true
        (List.sort compare ts = ts);
      let line = Journal.event_to_string (List.hd (Journal.recent ())) in
      check Alcotest.bool "rendered line names the kind" true
        (contains line (Journal.kind_label Journal.Phase_begin)))

let test_journal_capacity () =
  with_clean (fun () ->
      (try
         Journal.enable ~capacity:0 ();
         Alcotest.fail "capacity 0 accepted"
       with Invalid_argument _ -> ());
      Journal.enable ~capacity:3 ();
      for i = 1 to 5 do
        Journal.record ~v:i Journal.Diag "d"
      done;
      check Alcotest.int "ring clamps to capacity" 3
        (List.length (Journal.recent ()));
      check Alcotest.(list int) "newest three survive" [ 3; 4; 5 ]
        (List.map (fun e -> e.Journal.j_v) (Journal.recent ()));
      (* A capacity change transparently re-registers the domain's ring. *)
      Journal.enable ~capacity:8 ();
      for i = 1 to 6 do
        Journal.record ~v:i Journal.Diag "d"
      done;
      check Alcotest.int "fresh ring honors new capacity" 6
        (List.length (Journal.recent ())))

(* ------------------------------------------------------------------ *)
(* Disabled paths: zero allocation                                    *)
(* ------------------------------------------------------------------ *)

let test_disabled_paths_zero_alloc () =
  with_clean (fun () ->
      check Alcotest.bool "journal disabled" false (Journal.enabled ());
      check Alcotest.bool "slo disabled" false (Slo.enabled ());
      check Alcotest.bool "no deadline armed" false (Cet_util.Deadline.active ());
      let w0 = Gc.minor_words () in
      for i = 0 to 49_999 do
        if Journal.enabled () then Journal.record ~v:i Journal.Diag "never";
        if Slo.enabled () then Slo.observe ~tool:"never" ~config:"c" i;
        Cet_util.Deadline.check "never"
      done;
      let dw = Gc.minor_words () -. w0 in
      (* The budget absorbs the Gc.minor_words probes themselves; 50k
         guarded calls must contribute nothing. *)
      if dw > 100.0 then
        Alcotest.failf "disabled observability path allocated %.0f minor words" dw)

(* ------------------------------------------------------------------ *)
(* SLO grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_slo_parse_valid () =
  let ok spec = match Slo.parse spec with Ok o -> o | Error e -> Alcotest.failf "%s: %s" spec e in
  let o = ok "funseeker:p99<=50ms" in
  check Alcotest.string "tool" "funseeker" o.Slo.o_tool;
  check Alcotest.bool "no config" true (o.Slo.o_config = None);
  (match o.Slo.o_stat with
  | Slo.P q -> check (Alcotest.float 1e-9) "p99" 0.99 q
  | Slo.Max -> Alcotest.fail "expected quantile");
  check Alcotest.int "50ms in ns" 50_000_000 o.Slo.o_limit_ns;
  check Alcotest.string "raw spec preserved" "funseeker:p99<=50ms" o.Slo.o_raw;
  let o = ok "ida/gcc-x64-O2:max<=1s" in
  check Alcotest.(option string) "config" (Some "gcc-x64-O2") o.Slo.o_config;
  check Alcotest.bool "max stat" true (o.Slo.o_stat = Slo.Max);
  check Alcotest.int "1s in ns" 1_000_000_000 o.Slo.o_limit_ns;
  check Alcotest.int "250us in ns" 250_000 (ok "fetch:p50<=250us").Slo.o_limit_ns;
  let o = ok "binary:p99.9<=75ns" in
  check Alcotest.int "75ns" 75 o.Slo.o_limit_ns;
  (match o.Slo.o_stat with
  | Slo.P q -> check (Alcotest.float 1e-9) "p99.9" 0.999 q
  | Slo.Max -> Alcotest.fail "expected quantile")

let test_slo_parse_invalid () =
  List.iter
    (fun spec ->
      match Slo.parse spec with
      | Ok _ -> Alcotest.failf "%S parsed" spec
      | Error msg ->
        check Alcotest.bool
          (Printf.sprintf "%S error names the spec or component" spec)
          true
          (String.length msg > 0))
    [
      "funseeker";
      "";
      ":p99<=5ms";
      "t:q99<=5ms";
      "t:p0<=5ms";
      "t:p101<=5ms";
      "t:p99<=5m";
      "t:p99<=-5ms";
      "t:p99<=";
      "t:p99<=5";
      "t:max<5ms";
    ]

(* ------------------------------------------------------------------ *)
(* SLO observation and checking                                       *)
(* ------------------------------------------------------------------ *)

let obj spec = match Slo.parse spec with Ok o -> o | Error e -> Alcotest.failf "%s: %s" spec e

let test_slo_check () =
  with_clean (fun () ->
      Slo.enable ();
      List.iter (fun ns -> Slo.observe ~tool:"fs" ~config:"A" ns) [ 10; 20; 30 ];
      Slo.observe ~tool:"fs" ~config:"B" 1000;
      let keys = List.map fst (Slo.merged ()) in
      check
        Alcotest.(list (pair string string))
        "merged view sorted by (tool, config)"
        [ ("fs", "A"); ("fs", "B") ]
        keys;
      let verdicts =
        Slo.check
          [
            obj "fs:max<=1ms";
            obj "fs/A:max<=25ns";
            obj "fs:p50<=2us";
            obj "ghost:p99<=1s";
          ]
      in
      (match verdicts with
      | [ all_max; a_max; p50; ghost ] ->
        check Alcotest.bool "tool-wide max within budget" true all_max.Slo.v_ok;
        check Alcotest.int "tool-wide samples" 4 all_max.Slo.v_count;
        check Alcotest.bool "per-config max breached" false a_max.Slo.v_ok;
        check Alcotest.int "per-config actual is the max" 30 a_max.Slo.v_actual_ns;
        check Alcotest.int "per-config samples" 3 a_max.Slo.v_count;
        check Alcotest.bool "median within budget" true p50.Slo.v_ok;
        check Alcotest.bool "unmatched key is a breach" false ghost.Slo.v_ok;
        check Alcotest.int "unmatched count" 0 ghost.Slo.v_count;
        check Alcotest.int "unmatched actual sentinel" (-1) ghost.Slo.v_actual_ns
      | _ -> Alcotest.fail "verdict count");
      check Alcotest.bool "breached" true (Slo.breached verdicts);
      let table = Slo.render verdicts in
      check Alcotest.bool "render flags the breach" true (contains table "BREACH");
      check Alcotest.bool "render shows the raw spec" true
        (contains table "fs/A:max<=25ns"))

(* ------------------------------------------------------------------ *)
(* Harness integration: SLO samples, profiles, quarantine black box   *)
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

(* Before the harness observed SLO samples, even an absurdly generous
   objective breached (no samples for the key); this pins the wiring in
   both directions. *)
let test_slo_harness_end_to_end () =
  with_clean (fun () ->
      Slo.enable ();
      let _ = run_harness ~jobs:1 () in
      let generous = Slo.check [ obj "funseeker:p99<=100s" ] in
      check Alcotest.bool "generous objective holds" false (Slo.breached generous);
      check Alcotest.bool "harness observed funseeker samples" true
        ((List.hd generous).Slo.v_count > 0);
      let tight = Slo.check [ obj "funseeker:p99<=1ns"; obj "binary:max<=1ns" ] in
      check Alcotest.bool "1ns objective breaches" true (Slo.breached tight);
      List.iter
        (fun v -> check Alcotest.bool "breach carries samples" true (v.Slo.v_count > 0))
        tight)

let profiles_report ~jobs =
  let r = run_harness ~profile:true ~jobs () in
  (r, read_back (fun oc -> Harness.write_profiles oc r))

let test_profiles_deterministic_across_jobs () =
  let r1, seq = profiles_report ~jobs:1 in
  let _, par = profiles_report ~jobs:4 in
  check Alcotest.string "profile JSONL byte-identical across jobs" seq par;
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

let test_quarantine_black_box () =
  with_clean (fun () ->
      Journal.enable ();
      let fault (b : Cet_corpus.Dataset.binary) =
        b.Cet_corpus.Dataset.program = "coreutils_001"
      in
      let r = run_harness ~profile:true ~fault ~jobs:1 () in
      check Alcotest.int "two configs quarantined" 2 (List.length r.Harness.failures);
      List.iter
        (fun (f : Harness.failure) ->
          check Alcotest.bool "black box captured" true (f.Harness.f_journal <> []);
          let kinds = List.map (fun e -> e.Journal.j_kind) f.Harness.f_journal in
          check Alcotest.bool "records the quarantine" true
            (List.mem Journal.Quarantine kinds))
        r.Harness.failures;
      let jsonl = read_back (fun oc -> Harness.write_quarantine oc r) in
      check Alcotest.bool "quarantine rows ship the journal" true
        (contains jsonl "\"journal\":[");
      check Alcotest.bool "journal events are structured" true
        (contains jsonl "\"kind\":\"quarantine\"");
      (* Quarantined binaries still get a (zeroed) profile row. *)
      let quarantined =
        List.filter
          (fun (p : Harness.profile) -> p.Harness.p_status = "quarantined")
          r.Harness.profiles
      in
      check Alcotest.int "quarantined profile rows" 2 (List.length quarantined);
      List.iter
        (fun (p : Harness.profile) ->
          check Alcotest.int "evaluated once" 1 p.Harness.p_attempts;
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
        (contains (Harness.render_top_slow r 3) "SLOWEST BINARIES"))

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

let test_trace_instants () =
  with_clean (fun () ->
      Registry.enable ~trace:true ();
      Journal.enable ();
      Span.with_ ~name:"outer" (fun () ->
          Journal.record Journal.Diag "elf/short-read");
      Journal.record Journal.Quarantine "coreutils/x";
      let body = read_back Report.write_trace_chrome in
      check Alcotest.bool "instant events present" true
        (contains body "\"ph\":\"i\"");
      check Alcotest.bool "thread-scoped" true (contains body "\"s\":\"t\"");
      check Alcotest.bool "diag marker named" true
        (contains body "diag:elf/short-read");
      check Alcotest.bool "quarantine marker named" true
        (contains body "quarantine:coreutils/x");
      check Alcotest.bool "phase events are not instants" false
        (contains body "phase-begin:");
      check Alcotest.bool "array closed" true
        (String.length body >= 2 && body.[String.length body - 2] = ']'))

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
(* Observer bridges                                                   *)
(* ------------------------------------------------------------------ *)

let test_deadline_observer () =
  with_clean (fun () ->
      let seen = ref [] in
      Cet_util.Deadline.set_observer
        (Some (fun what slack_ns -> seen := (what, slack_ns) :: !seen));
      Cet_util.Deadline.with_ ~seconds:30.0 (fun () ->
          Cet_util.Deadline.check "sweep.loop");
      (match !seen with
      | [ (what, slack) ] ->
        check Alcotest.string "observer names the loop" "sweep.loop" what;
        check Alcotest.bool "slack positive and within budget" true
          (slack > 0 && slack <= 30_000_000_000)
      | l -> Alcotest.failf "expected one observation, got %d" (List.length l));
      Cet_util.Deadline.set_observer None;
      Cet_util.Deadline.with_ ~seconds:30.0 (fun () ->
          Cet_util.Deadline.check "sweep.loop");
      check Alcotest.int "removed observer sees nothing" 1 (List.length !seen))

let test_diag_observer () =
  with_clean (fun () ->
      let seen = ref [] in
      Cet_util.Diag.Collector.set_observer
        (Some (fun d -> seen := d :: !seen));
      let c = Cet_util.Diag.Collector.create () in
      Cet_util.Diag.Collector.add c
        (Cet_util.Diag.warning ~domain:"elf" ~code:"short-read" "truncated");
      (match !seen with
      | [ d ] ->
        check Alcotest.string "domain" "elf" d.Cet_util.Diag.domain;
        check Alcotest.string "code" "short-read" d.Cet_util.Diag.code
      | l -> Alcotest.failf "expected one diag, got %d" (List.length l));
      Cet_util.Diag.Collector.set_observer None;
      Cet_util.Diag.Collector.add c
        (Cet_util.Diag.warning ~domain:"elf" ~code:"short-read" "again");
      check Alcotest.int "removed observer sees nothing" 1 (List.length !seen))

(* ------------------------------------------------------------------ *)
(* top-slow under shedding                                            *)
(* ------------------------------------------------------------------ *)

let fake_profile ?(status = "ok") ~total name =
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
    p_diags = 0;
    p_attempts = 1;
    p_status = status;
    p_total_ms = total;
    p_phases = [];
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

(* A shed row's clock measured the cheap anchored-only analysis, not the
   real evaluation; ranking it among full evaluations used to present
   the cut corner as speed (or worse, as slowness to chase).  Shed rows
   are excluded from the ranking and counted on their own line. *)
let test_top_slow_excludes_shed () =
  let r =
    fake_results
      [
        fake_profile ~total:5.0 "tortoise";
        fake_profile ~total:1.0 "hare";
        fake_profile ~status:"shed" ~total:9.0 "cut-corner";
      ]
  in
  check Alcotest.(list string) "shed never ranked"
    [ "tortoise"; "hare" ]
    (List.map (fun p -> p.Harness.p_program) (Harness.top_slow r 3));
  let rendered = Harness.render_top_slow r 3 in
  check Alcotest.bool "ranked rows shown" true (contains rendered "tortoise");
  check Alcotest.bool "shed row not in table" false (contains rendered "cut-corner");
  check Alcotest.bool "shed rows counted distinctly" true (contains rendered "1 shed")

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
        Alcotest.test_case "journal: ring drops oldest" `Quick test_journal_drop_oldest;
        Alcotest.test_case "journal: record/recent/mark" `Quick
          test_journal_record_recent_mark;
        Alcotest.test_case "journal: capacity" `Quick test_journal_capacity;
        Alcotest.test_case "disabled paths: zero allocation" `Quick
          test_disabled_paths_zero_alloc;
        Alcotest.test_case "slo: grammar accepts" `Quick test_slo_parse_valid;
        Alcotest.test_case "slo: grammar rejects" `Quick test_slo_parse_invalid;
        Alcotest.test_case "slo: check and render" `Quick test_slo_check;
        Alcotest.test_case "slo: harness end-to-end" `Quick
          test_slo_harness_end_to_end;
        Alcotest.test_case "profiles: deterministic across jobs" `Slow
          test_profiles_deterministic_across_jobs;
        Alcotest.test_case "quarantine: black box and zeroed profile" `Quick
          test_quarantine_black_box;
        Alcotest.test_case "progress: ewma" `Quick test_ewma;
        Alcotest.test_case "openmetrics: grammar round-trip" `Quick
          test_openmetrics_grammar;
        Alcotest.test_case "openmetrics: cet_run_info labels" `Quick
          test_openmetrics_run_info;
        Alcotest.test_case "top-slow: shed rows excluded" `Quick
          test_top_slow_excludes_shed;
        Alcotest.test_case "trace: journal instants" `Quick test_trace_instants;
        Alcotest.test_case "hist: bucket edges" `Quick test_hist_bucket_edges;
        QCheck_alcotest.to_alcotest qcheck_merge_commutative;
        QCheck_alcotest.to_alcotest qcheck_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_bucket_contains;
        Alcotest.test_case "deadline: observer bridge" `Quick test_deadline_observer;
        Alcotest.test_case "diag: observer bridge" `Quick test_diag_observer;
      ] );
  ]
