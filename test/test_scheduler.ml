(* Scheduler-core tests: the Work_queue pool, its chaos layer, shedding
   and the deadline fraction it sheds against — exercised in isolation
   from the harness (test_robust.ml covers the end-to-end story). *)

module W = Cet_util.Work_queue
module Deadline = Cet_util.Deadline

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
  check Alcotest.bool "jobs >= 1" true (bad (fun () -> W.config ~jobs:0 ()));
  check Alcotest.bool "cap >= 1" true (bad (fun () -> W.config ~cap:0 ()));
  check Alcotest.bool "run_seconds > 0" true
    (bad (fun () -> W.config ~run_seconds:0.0 ()));
  check Alcotest.bool "chaos probability in [0,1]" true
    (bad (fun () ->
         W.config
           ~chaos:{ (W.Chaos.default ~seed:1) with W.Chaos.c_delay_p = 1.5 }
           ()));
  check Alcotest.bool "chaos delay >= 0" true
    (bad (fun () ->
         W.config
           ~chaos:{ (W.Chaos.default ~seed:1) with W.Chaos.c_max_delay_ns = -1 }
           ()))

let test_map_more_jobs_than_items () =
  let t = W.create (W.config ~jobs:8 ()) in
  check Alcotest.(array int) "3 items on 8 workers"
    (Array.init 3 busy_square) (W.map t 3 busy_square);
  check Alcotest.int "each item counted once" 3 (W.stats t).W.s_items

let test_map_sequential_in_order () =
  (* One worker and no chaos: the items run on the calling domain, in
     index order, as [Array.init] runs them. *)
  let t = W.create (W.config ~jobs:1 ()) in
  let self = Domain.self () in
  let order = ref [] in
  ignore
    (W.map t 20 (fun k ->
         if Domain.self () <> self then Alcotest.fail "item left the calling domain";
         order := k :: !order;
         k));
  check Alcotest.(list int) "index order" (List.init 20 Fun.id) (List.rev !order)

let test_map_run_deadline_armed () =
  (* [run_seconds] arms one deadline around each worker's loop, on the
     sequential path and on the pool alike; without it none is armed. *)
  List.iter
    (fun jobs ->
      let armed run_seconds =
        let t = W.create (W.config ~jobs ?run_seconds ()) in
        W.map t 12 (fun _ -> Deadline.remaining_fraction () <> None)
      in
      check Alcotest.(array bool)
        (Printf.sprintf "jobs=%d: armed in every item" jobs)
        (Array.make 12 true) (armed (Some 3600.0));
      check Alcotest.(array bool)
        (Printf.sprintf "jobs=%d: none without run_seconds" jobs)
        (Array.make 12 false) (armed None))
    [ 1; 3 ]

let test_map_workers_record_backtraces () =
  (* Backtrace recording is per domain: the workers follow the caller's
     setting, so an item's backtrace does not depend on where it ran. *)
  let saved = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace saved)
    (fun () ->
      let t = W.create (W.config ~jobs:4 ()) in
      let r =
        W.map t 40 (fun k ->
            match if busy_square k >= 0 then failwith "item" with
            | () -> false
            | exception Failure _ ->
              Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) > 0)
      in
      check Alcotest.(array bool) "every item has a backtrace" (Array.make 40 true) r;
      (* The workers outlive the call, and follow the next caller's
         setting, not this one's. *)
      Printexc.record_backtrace false;
      let r =
        W.map t 40 (fun k ->
            match if busy_square k >= 0 then failwith "item" with
            | () -> true
            | exception Failure _ ->
              Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) > 0)
      in
      check Alcotest.(array bool) "no item has a backtrace" (Array.make 40 false) r)

(* ------------------------------------------------------------------ *)
(* Worker domains that outlive a call                                 *)
(* ------------------------------------------------------------------ *)

let test_map_keeps_its_workers () =
  (* The items of five [map ~jobs:2] calls run on the caller and one
     worker: no call spawns a domain of its own. *)
  let lock = Mutex.create () and seen = ref [] in
  for _ = 1 to 5 do
    let t = W.create (W.config ~jobs:2 ()) in
    ignore
      (W.map t 40 (fun k ->
           let d = (Domain.self () :> int) in
           Mutex.protect lock (fun () -> if not (List.mem d !seen) then seen := d :: !seen);
           busy_square k))
  done;
  if List.length !seen > 2 then Alcotest.failf "%d domains ran the items" (List.length !seen)

let test_map_kept_results_heap () =
  (* A caller that keeps one boxed float per item (the ledger keeps a
     latency per binary) holds on to no heap pool of its own per call:
     the workers' pools are reused.  Each item allocates enough for its
     result to be promoted among garbage.  A worker spawned per call
     grows this heap by about 11 MB; reused workers, by 2 to 3. *)
  let kept = ref [] in
  let call c =
    let t = W.create (W.config ~jobs:2 ()) in
    let r =
      W.map t 40 (fun k ->
          let l = List.init 20_000 (fun i -> float_of_int (i + k)) in
          Some (List.fold_left ( +. ) (float_of_int c) l))
    in
    kept := r :: !kept
  in
  let heap_mb () =
    Gc.full_major ();
    float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8.0 /. 1e6
  in
  for c = 1 to 5 do
    call c
  done;
  let before = heap_mb () in
  for c = 1 to 30 do
    call c
  done;
  let grown = heap_mb () -. before in
  check Alcotest.int "results kept" 35 (List.length !kept);
  if grown > 6.0 then Alcotest.failf "heap grew %.1f MB over 30 calls" grown

let test_map_nested_runs_on_its_caller () =
  (* A map issued from inside an item finds the workers busy and runs on
     the item's own domain, in index order: no deadlock, and the array
     the sequential path returns. *)
  let t = W.create (W.config ~jobs:2 ()) in
  let expected = Array.init 6 (fun k -> Array.init 10 (fun j -> busy_square ((k * 10) + j))) in
  let r =
    W.map t 6 (fun k ->
        let self = Domain.self () and order = ref [] in
        let inner =
          W.map t 10 (fun j ->
              if Domain.self () <> self then Alcotest.fail "nested item left its caller";
              order := j :: !order;
              busy_square ((k * 10) + j))
        in
        if List.rev !order <> List.init 10 Fun.id then Alcotest.fail "nested items out of order";
        inner)
  in
  check Alcotest.(array (array int)) "same as sequential" expected r;
  check Alcotest.int "nested items counted" 66 (W.stats t).W.s_items

let test_map_from_second_domain () =
  (* A map from another domain while a call holds the workers runs on
     that domain alone. *)
  let t = W.create (W.config ~jobs:2 ()) in
  let r =
    W.map t 4 (fun k ->
        if k > 0 then [||]
        else
          Domain.join
            (Domain.spawn (fun () ->
                 let self = Domain.self () in
                 let u = W.create (W.config ~jobs:2 ()) in
                 W.map u 10 (fun j ->
                     if Domain.self () <> self then failwith "item left its domain";
                     busy_square j))))
  in
  check Alcotest.(array int) "second domain's map" (Array.init 10 busy_square) r.(0)

let test_map_escape_reraised () =
  (* An exception that escapes a worker's loop rather than an item (here
     a raising observer) is re-raised in the caller, and the workers
     serve the next call.  A stall event comes after the worker has
     counted its item as taken, a steal event before. *)
  let stalls =
    { (W.Chaos.default ~seed:1) with W.Chaos.c_stall_p = 1.0; c_delay_p = 0.0; c_max_delay_ns = 0 }
  in
  List.iter
    (fun (name, chaos) ->
      let raised = Atomic.make false in
      let observer = function
        | W.Chaos_stall { worker; _ } | W.Steal { thief = worker; _ } when worker > 0 ->
          Atomic.set raised true;
          raise Exit
        | _ -> ()
      in
      let t = W.create ~observer (W.config ~jobs:2 ?chaos ()) in
      let caller = Domain.self () in
      let f k =
        (* The caller holds its first item until the worker has raised,
           so the worker is sure to take (or steal) one. *)
        if Domain.self () = caller then begin
          let t0 = Unix.gettimeofday () in
          while (not (Atomic.get raised)) && Unix.gettimeofday () -. t0 < 10.0 do
            Domain.cpu_relax ()
          done
        end;
        busy_square k
      in
      (match W.map t 6 f with
      | _ -> Alcotest.failf "%s: the escaped exception was not re-raised" name
      | exception Exit -> ());
      let t = W.create (W.config ~jobs:2 ()) in
      check Alcotest.(array int) (name ^ ": the workers serve the next call")
        (Array.init 40 busy_square) (W.map t 40 busy_square))
    [ ("stall", Some stalls); ("steal", None) ]

(* ------------------------------------------------------------------ *)
(* Chaos: timing faults only                                          *)
(* ------------------------------------------------------------------ *)

let stormy ~seed =
  { (W.Chaos.default ~seed) with W.Chaos.c_stall_p = 0.3; c_delay_p = 0.4; c_max_delay_ns = 20_000 }

let test_chaos_runs_each_item_once () =
  (* Chaos delays and stalls a worker, it never re-runs or drops work:
     every index is evaluated exactly once. *)
  let n = 150 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let t = W.create (W.config ~jobs:4 ~chaos:(stormy ~seed:3) ()) in
  let r =
    W.map t n (fun k ->
        Atomic.incr runs.(k);
        busy_square k)
  in
  check Alcotest.(array int) "results" (Array.init n busy_square) r;
  Array.iteri
    (fun k c ->
      if Atomic.get c <> 1 then Alcotest.failf "item %d ran %d times" k (Atomic.get c))
    runs

let test_chaos_delays_deterministic () =
  (* Which items are delayed is drawn from the chaos seed and the item
     index alone, so two runs at different worker counts delay the same
     items. *)
  let delayed jobs =
    let lock = Mutex.create () and seen = ref [] in
    let observer = function
      | W.Chaos_delay { index; _ } -> Mutex.protect lock (fun () -> seen := index :: !seen)
      | _ -> ()
    in
    let t = W.create ~observer (W.config ~jobs ~chaos:(stormy ~seed:11) ()) in
    ignore (W.map t 80 busy_square);
    (List.sort compare !seen, (W.stats t).W.s_chaos_delays)
  in
  let a, na = delayed 1 and b, nb = delayed 4 in
  check Alcotest.(list int) "same delayed items" a b;
  check Alcotest.int "counter = events" (List.length a) na;
  check Alcotest.int "same count" na nb;
  check Alcotest.bool "something was delayed" true (na > 0)

let test_chaos_stall_events_counted () =
  let stalls = Atomic.make 0 in
  let observer = function W.Chaos_stall _ -> Atomic.incr stalls | _ -> () in
  let t = W.create ~observer (W.config ~jobs:3 ~chaos:(stormy ~seed:5) ()) in
  ignore (W.map t 60 busy_square);
  check Alcotest.int "one event per counted stall" (W.stats t).W.s_chaos_stalls
    (Atomic.get stalls)

let test_chaos_failure_lowest_index () =
  (* The failure contract holds under chaos too. *)
  let f k = if k = 17 || k = 63 then failwith (Printf.sprintf "item-%d" k) else busy_square k in
  let t = W.create (W.config ~jobs:4 ~chaos:(stormy ~seed:7) ()) in
  match W.map t 80 f with
  | _ -> Alcotest.fail "failure did not propagate"
  | exception Failure msg -> check Alcotest.string "lowest index wins" "item-17" msg

let test_chaos_runs_everything_below_failure () =
  (* The drain contract under chaos: a failure drops only items above it. *)
  let n = 120 and failing = 70 in
  let ran = Array.init n (fun _ -> Atomic.make false) in
  let f k =
    Atomic.set ran.(k) true;
    if k = failing then failwith "item-70" else busy_square k
  in
  let t = W.create (W.config ~jobs:3 ~cap:4 ~chaos:(stormy ~seed:21) ()) in
  (match W.map t n f with
  | _ -> Alcotest.fail "failure did not propagate"
  | exception Failure _ -> ());
  for k = 0 to failing do
    if not (Atomic.get ran.(k)) then Alcotest.failf "item %d below the failure never ran" k
  done

let test_chaos_admission_cap () =
  let cap = 2 in
  let t = W.create (W.config ~jobs:3 ~cap ~chaos:(stormy ~seed:9) ()) in
  ignore (W.map t 60 busy_square);
  let hw = (W.stats t).W.s_max_pending in
  if hw > cap then Alcotest.failf "admission high-water %d exceeds cap %d" hw cap

let test_chaos_single_worker () =
  (* Chaos at one worker takes the pooled path on the calling domain. *)
  let t = W.create (W.config ~jobs:1 ~chaos:(stormy ~seed:13) ()) in
  check Alcotest.(array int) "results" (Array.init 40 busy_square) (W.map t 40 busy_square);
  check Alcotest.int "no steals with one worker" 0 (W.stats t).W.s_steals

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

let test_shed_under_pressure () =
  (* shed_fraction 2.0 > any real fraction: every unit under an ambient
     deadline runs degraded — the deterministic recipe the harness shed
     test uses, exercised here at the scheduler layer. *)
  let t =
    W.create
      (W.config ~jobs:1 ~run_seconds:3600.0 ~shed_fraction:2.0 ())
  in
  let r = W.map t 3 (fun k -> W.shed t ~key:(string_of_int k)) in
  check Alcotest.(array bool) "every unit shed" [| true; true; true |] r;
  check Alcotest.int "sheds counted" 3 (W.stats t).W.s_sheds

let test_no_shed_without_deadline () =
  let t = W.create (W.config ~jobs:1 ~shed_fraction:2.0 ()) in
  check Alcotest.bool "no ambient deadline, no shed" false (W.shed t ~key:"u");
  check Alcotest.int "nothing counted" 0 (W.stats t).W.s_sheds

let test_no_shed_above_fraction () =
  (* A fresh hour-long budget is far above a 1% threshold, and with no
     threshold at all nothing is ever shed. *)
  List.iter
    (fun shed_fraction ->
      let t = W.create (W.config ~jobs:2 ~run_seconds:3600.0 ?shed_fraction ()) in
      let r = W.map t 6 (fun k -> W.shed t ~key:(string_of_int k)) in
      check Alcotest.(array bool) "nothing shed" (Array.make 6 false) r;
      check Alcotest.int "nothing counted" 0 (W.stats t).W.s_sheds)
    [ Some 0.01; None ]

(* ------------------------------------------------------------------ *)
(* Events                                                             *)
(* ------------------------------------------------------------------ *)

let test_observer_sees_shed () =
  let events = ref [] in
  let lock = Mutex.create () in
  let observer e = Mutex.protect lock (fun () -> events := e :: !events) in
  let t =
    W.create ~observer (W.config ~jobs:2 ~run_seconds:3600.0 ~shed_fraction:2.0 ())
  in
  ignore (W.map t 4 (fun k -> W.shed t ~key:(Printf.sprintf "unit-%d" k)));
  let keys =
    List.sort compare (List.filter_map (function W.Shed { key } -> Some key | _ -> None) !events)
  in
  check Alcotest.(list string) "one Shed event per unit, named"
    [ "unit-0"; "unit-1"; "unit-2"; "unit-3" ] keys

let test_observer_sees_steals () =
  (* Every steal is one event naming two distinct workers of the pool. *)
  let jobs = 4 in
  let lock = Mutex.create () and steals = ref [] in
  let observer = function
    | W.Steal { thief; victim } ->
      Mutex.protect lock (fun () -> steals := (thief, victim) :: !steals)
    | _ -> ()
  in
  let t = W.create ~observer (W.config ~jobs ~chaos:(stormy ~seed:17) ()) in
  ignore (W.map t 200 busy_square);
  check Alcotest.int "one event per counted steal" (W.stats t).W.s_steals (List.length !steals);
  List.iter
    (fun (thief, victim) ->
      if thief = victim || thief < 0 || victim < 0 || thief >= jobs || victim >= jobs then
        Alcotest.failf "steal %d<-%d outside the pool" thief victim)
    !steals

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
        Alcotest.test_case "map: more jobs than items" `Quick
          test_map_more_jobs_than_items;
        Alcotest.test_case "map: one worker runs in index order" `Quick
          test_map_sequential_in_order;
        Alcotest.test_case "map: run deadline armed in every item" `Quick
          test_map_run_deadline_armed;
        Alcotest.test_case "map: workers record backtraces" `Quick
          test_map_workers_record_backtraces;
        Alcotest.test_case "map: five calls, two domains" `Quick test_map_keeps_its_workers;
        Alcotest.test_case "map: kept results do not grow the heap" `Quick
          test_map_kept_results_heap;
        Alcotest.test_case "map: nested map runs on its caller" `Quick
          test_map_nested_runs_on_its_caller;
        Alcotest.test_case "map: a second domain's map runs alone" `Quick
          test_map_from_second_domain;
        Alcotest.test_case "map: an escape from a worker's loop is re-raised" `Quick
          test_map_escape_reraised;
        Alcotest.test_case "chaos: each item runs once" `Quick
          test_chaos_runs_each_item_once;
        Alcotest.test_case "chaos: delays drawn from seed and index" `Quick
          test_chaos_delays_deterministic;
        Alcotest.test_case "chaos: stall events counted" `Quick
          test_chaos_stall_events_counted;
        Alcotest.test_case "chaos: lowest failing index wins" `Quick
          test_chaos_failure_lowest_index;
        Alcotest.test_case "chaos: every item below a failure runs" `Quick
          test_chaos_runs_everything_below_failure;
        Alcotest.test_case "chaos: admission cap respected" `Quick
          test_chaos_admission_cap;
        Alcotest.test_case "chaos: one worker" `Quick test_chaos_single_worker;
        Alcotest.test_case "deadline fraction: unarmed" `Quick
          test_remaining_fraction_unarmed;
        Alcotest.test_case "deadline fraction: armed" `Quick
          test_remaining_fraction_armed;
        qcheck qcheck_nested_deadline_never_extends;
        Alcotest.test_case "shed: under pressure" `Quick test_shed_under_pressure;
        Alcotest.test_case "shed: not without a deadline" `Quick
          test_no_shed_without_deadline;
        Alcotest.test_case "shed: not above the fraction" `Quick
          test_no_shed_above_fraction;
        Alcotest.test_case "observer: shed events" `Quick test_observer_sees_shed;
        Alcotest.test_case "observer: steal events" `Quick test_observer_sees_steals;
        Alcotest.test_case "map: every item below a failure runs" `Quick
          test_map_runs_everything_below_failure;
      ] );
  ]
