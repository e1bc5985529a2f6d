(* Scheduler-core tests: the Work_queue pool, guard, breaker, backoff
   arithmetic and the deadline fraction it sheds against — exercised in
   isolation from the harness (test_robust.ml covers the end-to-end
   story). *)

module W = Cet_util.Work_queue
module Deadline = Cet_util.Deadline
module Prng = Cet_util.Prng

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* The pool: determinism, admission, failure draining                 *)
(* ------------------------------------------------------------------ *)

(* A mildly irregular per-item workload, so steals actually happen. *)
let busy_square k =
  let acc = ref 0 in
  for i = 0 to 50 + (k mod 7 * 40) do
    acc := !acc + ((k * 31) + i)
  done;
  (k * k) + (!acc land 0)

let qcheck_map_matches_sequential =
  QCheck.Test.make ~name:"work_queue: map = Array.init (any jobs/cap/seed)"
    ~count:60
    QCheck.(triple (int_bound 200) (int_range 1 8) (int_range 1 12))
    (fun (n, jobs, cap) ->
      let t = W.create (W.config ~jobs ~cap ~seed:(n + jobs) ()) in
      W.map t n busy_square = Array.init n busy_square)

let qcheck_map_matches_sequential_chaos =
  QCheck.Test.make
    ~name:"work_queue: chaos never changes map results" ~count:30
    QCheck.(pair (int_bound 120) (int_range 1 6))
    (fun (n, jobs) ->
      let chaos =
        {
          (W.Chaos.default ~seed:(n lxor 0x5bd1)) with
          (* Aggressive rates, tiny sleeps: scramble scheduling hard
             without slowing the property test. *)
          W.Chaos.c_stall_p = 0.3;
          c_delay_p = 0.4;
          c_fault_p = 0.3;
          c_max_delay_ns = 20_000;
        }
      in
      let t = W.create (W.config ~jobs ~chaos ()) in
      W.map t n busy_square = Array.init n busy_square)

let test_map_empty_and_single () =
  let t = W.create (W.config ~jobs:4 ()) in
  check Alcotest.(array int) "empty" [||] (W.map t 0 busy_square);
  check Alcotest.(array int) "single"
    [| busy_square 0 |]
    (W.map t 1 busy_square)

let test_map_reusable_instance () =
  let t = W.create (W.config ~jobs:3 ()) in
  let a = W.map t 40 busy_square in
  let b = W.map t 40 busy_square in
  check Alcotest.(array int) "second map on same instance" a b;
  check Alcotest.int "items accumulate" 80 (W.stats t).W.s_items

let test_admission_cap_respected () =
  (* A tight cap with slow items: the high-water mark must never pass
     the cap, and the producer must still finish the whole plan
     (backpressure turns it into a worker, not a deadlock). *)
  let cap = 3 in
  let t = W.create (W.config ~jobs:4 ~cap ()) in
  let slow k =
    let acc = ref k in
    for i = 0 to 5_000 do
      acc := !acc lxor (i * k)
    done;
    !acc
  in
  let r = W.map t 100 slow in
  check Alcotest.int "all items ran" 100 (Array.length r);
  let hw = (W.stats t).W.s_max_pending in
  if hw > cap then
    Alcotest.failf "admission high-water %d exceeds cap %d" hw cap

let test_map_negative_size_rejected () =
  let t = W.create (W.config ~jobs:2 ()) in
  (try
     ignore (W.map t (-1) busy_square);
     Alcotest.fail "negative size accepted"
   with Invalid_argument _ -> ())

let test_map_lowest_failure_wins () =
  (* Two failing indices: whichever worker notices second must lose to
     the lower index, whatever the interleaving — the exception
     [Array.init] raises, from the sequential path and the spawned one. *)
  let f k =
    if k = 17 then failwith "item-17"
    else if k = 63 then failwith "item-63"
    else busy_square k
  in
  List.iter
    (fun jobs ->
      let t = W.create (W.config ~jobs ()) in
      try
        ignore (W.map t 80 f);
        Alcotest.failf "jobs=%d: failure did not propagate" jobs
      with Failure msg ->
        check Alcotest.string (Printf.sprintf "jobs=%d: lowest index wins" jobs) "item-17" msg)
    [ 1; 4 ]

let test_map_runs_everything_below_failure () =
  (* [Array.init] evaluates every index below the one that raises, so
     the pool must too: a failure drops only the items above it, never
     an admitted lower one that could still fail first. *)
  let n = 200 and failing = 120 in
  List.iter
    (fun jobs ->
      let ran = Array.init n (fun _ -> Atomic.make false) in
      let f k =
        Atomic.set ran.(k) true;
        if k = failing then failwith "item-120" else busy_square k
      in
      let t = W.create (W.config ~jobs ~cap:4 ()) in
      (try
         ignore (W.map t n f);
         Alcotest.failf "jobs=%d: failure did not propagate" jobs
       with Failure _ -> ());
      for k = 0 to failing do
        if not (Atomic.get ran.(k)) then
          Alcotest.failf "jobs=%d: item %d below the failure never ran" jobs k
      done)
    [ 1; 2; 4 ]

let test_config_validation () =
  let bad f = try ignore (W.create (f ())); false with Invalid_argument _ -> true in
  check Alcotest.bool "cap >= 1" true (bad (fun () -> W.config ~cap:0 ()));
  check Alcotest.bool "attempts >= 1" true
    (bad (fun () -> W.config ~attempts:0 ()));
  check Alcotest.bool "run_seconds > 0" true
    (bad (fun () -> W.config ~run_seconds:0.0 ()));
  check Alcotest.bool "chaos probability in [0,1]" true
    (bad (fun () ->
         W.config
           ~chaos:{ (W.Chaos.default ~seed:1) with W.Chaos.c_fault_p = 1.5 }
           ()))

(* ------------------------------------------------------------------ *)
(* Backoff arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let qcheck_backoff_monotone =
  QCheck.Test.make ~name:"backoff: non-decreasing in attempt, capped"
    ~count:300
    QCheck.(triple (int_range 1 1_000_000) (int_range 1 1_000_000) (int_range 1 60))
    (fun (base_ns, extra, attempt) ->
      let max_ns = base_ns + extra in
      let d = W.backoff_ns ~base_ns ~max_ns ~attempt in
      let d' = W.backoff_ns ~base_ns ~max_ns ~attempt:(attempt + 1) in
      d >= base_ns && d <= max_ns && d' >= d)

let test_backoff_schedule () =
  let d a = W.backoff_ns ~base_ns:1_000 ~max_ns:50_000 ~attempt:a in
  check Alcotest.int "attempt 1" 1_000 (d 1);
  check Alcotest.int "attempt 2" 2_000 (d 2);
  check Alcotest.int "attempt 3" 4_000 (d 3);
  check Alcotest.int "capped" 50_000 (d 40);
  check Alcotest.int "zero base stays zero"
    0 (W.backoff_ns ~base_ns:0 ~max_ns:50_000 ~attempt:9)

let qcheck_jitter_bounds =
  QCheck.Test.make ~name:"backoff: jitter stays in [d/2, d]" ~count:300
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 40))
    (fun (base_ns, attempt) ->
      let max_ns = 64_000_000 in
      let g = Prng.create (base_ns lxor attempt) in
      let d = W.backoff_ns ~base_ns ~max_ns ~attempt in
      let j = W.jittered_backoff_ns g ~base_ns ~max_ns ~attempt in
      j >= d / 2 && j <= d)

(* ------------------------------------------------------------------ *)
(* Circuit breaker state machine                                      *)
(* ------------------------------------------------------------------ *)

let test_breaker_transitions () =
  let b = W.Breaker.create { W.Breaker.threshold = 3; cooldown = 2 } in
  check Alcotest.string "starts closed" "closed" (W.Breaker.state_name b);
  (* Two failures: still closed (threshold is 3). *)
  check Alcotest.bool "failure 1" false (W.Breaker.failure b);
  check Alcotest.bool "failure 2" false (W.Breaker.failure b);
  check Alcotest.string "still closed" "closed" (W.Breaker.state_name b);
  (* A success resets the consecutive count. *)
  ignore (W.Breaker.success b : bool);
  check Alcotest.bool "failure after reset" false (W.Breaker.failure b);
  check Alcotest.bool "failure" false (W.Breaker.failure b);
  check Alcotest.bool "third consecutive opens" true (W.Breaker.failure b);
  check Alcotest.string "open" "open" (W.Breaker.state_name b);
  (* Cooldown = 2 skipped units, then the next ask is the probe. *)
  check Alcotest.bool "skip 1"
    true (W.Breaker.ask b = W.Breaker.Skip);
  check Alcotest.bool "skip 2"
    true (W.Breaker.ask b = W.Breaker.Skip);
  check Alcotest.bool "probe after cooldown"
    true (W.Breaker.ask b = W.Breaker.Probe);
  check Alcotest.string "half-open" "half-open" (W.Breaker.state_name b);
  (* While the probe is in flight, other units are skipped. *)
  check Alcotest.bool "skip during probe"
    true (W.Breaker.ask b = W.Breaker.Skip);
  (* A successful probe closes the breaker again. *)
  check Alcotest.bool "probe success closes" true (W.Breaker.success b);
  check Alcotest.string "closed again" "closed" (W.Breaker.state_name b);
  check Alcotest.bool "allows again"
    true (W.Breaker.ask b = W.Breaker.Allow)

let test_breaker_probe_failure_reopens () =
  let b = W.Breaker.create { W.Breaker.threshold = 1; cooldown = 1 } in
  check Alcotest.bool "opens" true (W.Breaker.failure b);
  check Alcotest.bool "skip" true (W.Breaker.ask b = W.Breaker.Skip);
  check Alcotest.bool "probe" true (W.Breaker.ask b = W.Breaker.Probe);
  check Alcotest.bool "probe failure reopens" true (W.Breaker.failure b);
  check Alcotest.string "open again" "open" (W.Breaker.state_name b);
  check Alcotest.bool "skips again"
    true (W.Breaker.ask b = W.Breaker.Skip)

let test_breaker_config_validation () =
  (try
     ignore (W.Breaker.create { W.Breaker.threshold = 0; cooldown = 1 });
     Alcotest.fail "threshold 0 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (W.Breaker.create { W.Breaker.threshold = 1; cooldown = -1 });
     Alcotest.fail "negative cooldown accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Guarded units: retry, retryability veto, breaker integration       *)
(* ------------------------------------------------------------------ *)

let guard_config ?breaker ?attempts () =
  (* Microscopic backoff so retry tests run in microseconds. *)
  W.config ~jobs:1 ?attempts ?breaker ~backoff_base_ns:1_000
    ~backoff_max_ns:4_000 ()

let test_guard_first_attempt_success () =
  let t = W.create (guard_config ()) in
  match W.guard t ~key:"u" ~group:"g" (fun ~attempt ~degraded ->
      check Alcotest.int "attempt number" 1 attempt;
      check Alcotest.bool "not degraded" false degraded;
      42)
  with
  | Ok g ->
    check Alcotest.int "value" 42 g.W.g_value;
    check Alcotest.int "one attempt" 1 g.W.g_attempts;
    check Alcotest.bool "not shed" false g.W.g_degraded
  | Error _ -> Alcotest.fail "guard failed"

let test_guard_retries_then_succeeds () =
  let t = W.create (guard_config ~attempts:3 ()) in
  let calls = ref 0 in
  (match W.guard t ~key:"u" ~group:"g" (fun ~attempt ~degraded:_ ->
       incr calls;
       if attempt < 3 then failwith "flaky" else "ok")
   with
  | Ok g ->
    check Alcotest.string "value" "ok" g.W.g_value;
    check Alcotest.int "attempts recorded" 3 g.W.g_attempts
  | Error _ -> Alcotest.fail "guard failed");
  check Alcotest.int "work ran three times" 3 !calls;
  check Alcotest.int "retries counted" 2 (W.stats t).W.s_retries

let test_guard_exhausts_attempts () =
  let t = W.create (guard_config ~attempts:2 ()) in
  match W.guard t ~key:"u" ~group:"g" (fun ~attempt:_ ~degraded:_ ->
      failwith "always")
  with
  | Ok _ -> Alcotest.fail "guard succeeded"
  | Error f ->
    check Alcotest.int "both attempts ran" 2 f.W.w_attempts;
    check Alcotest.bool "not a breaker skip" false f.W.w_breaker_skip;
    check Alcotest.bool "carries the exception" true
      (match f.W.w_error with
      | Failure m -> m = "always"
      | _ -> false)

let test_guard_retryable_veto () =
  let t = W.create (guard_config ~attempts:3 ()) in
  let calls = ref 0 in
  (match W.guard t ~key:"u" ~group:"g"
      ~retryable:(function Failure m -> m <> "fatal" | _ -> true)
      (fun ~attempt:_ ~degraded:_ ->
        incr calls;
        failwith "fatal")
   with
  | Ok _ -> Alcotest.fail "guard succeeded"
  | Error f -> check Alcotest.int "single attempt" 1 f.W.w_attempts);
  check Alcotest.int "no retry of a vetoed failure" 1 !calls

let test_guard_breaker_fast_fail () =
  let breaker = { W.Breaker.threshold = 2; cooldown = 3 } in
  let t = W.create (guard_config ~breaker ~attempts:1 ()) in
  let fail () =
    W.guard t ~key:"u" ~group:"prog" (fun ~attempt:_ ~degraded:_ ->
        failwith "boom")
  in
  ignore (fail ());
  ignore (fail ());
  (* Threshold reached: the next unit in the group is fast-failed
     without the work running. *)
  let ran = ref false in
  (match W.guard t ~key:"u3" ~group:"prog" (fun ~attempt:_ ~degraded:_ ->
       ran := true)
   with
  | Ok _ -> Alcotest.fail "breaker did not trip"
  | Error f ->
    check Alcotest.bool "flagged as skip" true f.W.w_breaker_skip;
    check Alcotest.int "work never ran" 0 f.W.w_attempts;
    check Alcotest.bool "Breaker_tripped carries the group" true
      (match f.W.w_error with
      | W.Breaker_tripped g -> g = "prog"
      | _ -> false));
  check Alcotest.bool "work never ran" false !ran;
  (* A different group is unaffected. *)
  (match W.guard t ~key:"o" ~group:"other" (fun ~attempt:_ ~degraded:_ -> 7)
   with
  | Ok g -> check Alcotest.int "other group runs" 7 g.W.g_value
  | Error _ -> Alcotest.fail "other group tripped");
  check Alcotest.int "one open counted" 1 (W.stats t).W.s_breaker_opens;
  check Alcotest.int "one skip counted" 1 (W.stats t).W.s_breaker_skips

let test_guard_breaker_recovers_via_probe () =
  let breaker = { W.Breaker.threshold = 1; cooldown = 1 } in
  let t = W.create (guard_config ~breaker ~attempts:1 ()) in
  let unit ~ok key =
    W.guard t ~key ~group:"prog" (fun ~attempt:_ ~degraded:_ ->
        if not ok then failwith "down")
  in
  check Alcotest.bool "opens" true (Result.is_error (unit ~ok:false "a"));
  check Alcotest.bool "cooldown skip" true
    (match unit ~ok:true "b" with
    | Error { W.w_breaker_skip = true; _ } -> true
    | _ -> false);
  (* Cooldown spent: this unit is the half-open probe, and it runs. *)
  check Alcotest.bool "probe runs and closes" true
    (Result.is_ok (unit ~ok:true "c"));
  check Alcotest.bool "group readmitted" true
    (Result.is_ok (unit ~ok:true "d"))

(* ------------------------------------------------------------------ *)
(* Shedding and Deadline.remaining_fraction                           *)
(* ------------------------------------------------------------------ *)

let test_remaining_fraction_unarmed () =
  check Alcotest.bool "None when disarmed" true
    (Deadline.remaining_fraction () = None)

let test_remaining_fraction_armed () =
  Deadline.with_ ~seconds:3600.0 (fun () ->
      match Deadline.remaining_fraction () with
      | None -> Alcotest.fail "armed deadline reported None"
      | Some f ->
        if f < 0.9 || f > 1.0 then
          Alcotest.failf "fresh hour-long budget at fraction %g" f)

let qcheck_nested_deadline_never_extends =
  (* An inner deadline never extends the enclosing one: the ambient
     remaining *time* under the inner scope is <= the outer scope's, so
     outer_budget * outer_fraction bounds inner_budget * inner_fraction
     (small epsilon for the clock reads between the two samples). *)
  QCheck.Test.make ~name:"deadline: nesting never extends the budget"
    ~count:50
    QCheck.(pair (float_range 1.0 100.0) (float_range 1.0 500.0))
    (fun (outer_s, inner_s) ->
      Deadline.with_ ~seconds:outer_s (fun () ->
          let outer_rem =
            match Deadline.remaining_fraction () with
            | Some f -> f *. outer_s
            | None -> QCheck.Test.fail_report "outer disarmed"
          in
          Deadline.with_ ~seconds:inner_s (fun () ->
              let eff = Float.min inner_s outer_s in
              match Deadline.remaining_fraction () with
              | None -> QCheck.Test.fail_report "inner disarmed"
              | Some f -> (f *. eff) <= outer_rem +. 1e-3)))

let test_guard_sheds_under_pressure () =
  (* shed_fraction 2.0 > any real fraction: every guarded unit under an
     ambient deadline runs degraded — the deterministic recipe the
     harness shed test uses, exercised here at the scheduler layer. *)
  let t =
    W.create
      (W.config ~jobs:1 ~run_seconds:3600.0 ~shed_fraction:2.0 ())
  in
  let r =
    W.map t 3 (fun k ->
        match
          W.guard t ~key:(string_of_int k) ~group:"g"
            (fun ~attempt:_ ~degraded -> degraded)
        with
        | Ok g -> g.W.g_degraded && g.W.g_value
        | Error _ -> false)
  in
  check Alcotest.(array bool) "every unit shed" [| true; true; true |] r;
  check Alcotest.int "sheds counted" 3 (W.stats t).W.s_sheds

let test_guard_no_shed_without_deadline () =
  let t = W.create (W.config ~jobs:1 ~shed_fraction:2.0 ()) in
  match W.guard t ~key:"u" ~group:"g" (fun ~attempt:_ ~degraded -> degraded)
  with
  | Ok g ->
    check Alcotest.bool "no ambient deadline, no shed" false g.W.g_value
  | Error _ -> Alcotest.fail "guard failed"

(* ------------------------------------------------------------------ *)
(* Events                                                             *)
(* ------------------------------------------------------------------ *)

let test_observer_sees_backoff_and_breaker () =
  let events = ref [] in
  let lock = Mutex.create () in
  let observer e =
    Mutex.protect lock (fun () -> events := e :: !events)
  in
  let breaker = { W.Breaker.threshold = 1; cooldown = 1 } in
  let t =
    W.create ~observer
      (W.config ~jobs:1 ~attempts:2 ~breaker ~backoff_base_ns:1_000
         ~backoff_max_ns:2_000 ())
  in
  ignore
    (W.guard t ~key:"u" ~group:"g" (fun ~attempt:_ ~degraded:_ ->
         failwith "x"));
  ignore
    (W.guard t ~key:"v" ~group:"g" (fun ~attempt:_ ~degraded:_ -> ()));
  let has p = List.exists p !events in
  check Alcotest.bool "Backoff observed" true
    (has (function W.Backoff { key = "u"; attempt = 1; _ } -> true | _ -> false));
  check Alcotest.bool "Breaker_open observed" true
    (has (function W.Breaker_open { group = "g"; _ } -> true | _ -> false));
  check Alcotest.bool "Breaker_skip observed" true
    (has (function W.Breaker_skip { group = "g"; key = "v" } -> true | _ -> false))

let suite =
  [
    ( "scheduler",
      [
        Alcotest.test_case "map: empty and single" `Quick
          test_map_empty_and_single;
        Alcotest.test_case "map: instance reusable" `Quick
          test_map_reusable_instance;
        Alcotest.test_case "map: admission cap respected" `Quick
          test_admission_cap_respected;
        Alcotest.test_case "map: negative size rejected" `Quick
          test_map_negative_size_rejected;
        Alcotest.test_case "map: lowest failing index wins" `Quick
          test_map_lowest_failure_wins;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        qcheck qcheck_map_matches_sequential;
        qcheck qcheck_map_matches_sequential_chaos;
        Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
        qcheck qcheck_backoff_monotone;
        qcheck qcheck_jitter_bounds;
        Alcotest.test_case "breaker transitions" `Quick
          test_breaker_transitions;
        Alcotest.test_case "breaker probe failure reopens" `Quick
          test_breaker_probe_failure_reopens;
        Alcotest.test_case "breaker config validation" `Quick
          test_breaker_config_validation;
        Alcotest.test_case "guard: first attempt success" `Quick
          test_guard_first_attempt_success;
        Alcotest.test_case "guard: retries then succeeds" `Quick
          test_guard_retries_then_succeeds;
        Alcotest.test_case "guard: exhausts attempts" `Quick
          test_guard_exhausts_attempts;
        Alcotest.test_case "guard: retryable veto" `Quick
          test_guard_retryable_veto;
        Alcotest.test_case "guard: breaker fast-fail" `Quick
          test_guard_breaker_fast_fail;
        Alcotest.test_case "guard: breaker recovers via probe" `Quick
          test_guard_breaker_recovers_via_probe;
        Alcotest.test_case "deadline fraction: unarmed" `Quick
          test_remaining_fraction_unarmed;
        Alcotest.test_case "deadline fraction: armed" `Quick
          test_remaining_fraction_armed;
        qcheck qcheck_nested_deadline_never_extends;
        Alcotest.test_case "guard: sheds under pressure" `Quick
          test_guard_sheds_under_pressure;
        Alcotest.test_case "guard: no shed without deadline" `Quick
          test_guard_no_shed_without_deadline;
        Alcotest.test_case "observer: backoff and breaker events" `Quick
          test_observer_sees_backoff_and_breaker;
        Alcotest.test_case "map: every item below a failure runs" `Quick
          test_map_runs_everything_below_failure;
      ] );
  ]
