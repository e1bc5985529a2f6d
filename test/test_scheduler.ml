(* Scheduler-core tests: the Work_queue pool and the per-domain
   deadlines its items arm, exercised in isolation from the harness
   (test_robust.ml covers the end-to-end story). *)

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

(* Scheduling is perturbed from the test side: about 40% of the items
   sleep 0-20 us before they run, drawn from a hash of the seed and the
   item index, so the same items are slowed at any worker count.  Slowed
   items make the other workers run dry and steal, and move the failure
   and admission paths in time; the results must not move. *)
let perturbed ~seed f k =
  let h = Hashtbl.hash (seed, k) in
  if h mod 5 < 2 then Unix.sleepf (float_of_int (h / 5 mod 21) *. 1e-6);
  f k

let qcheck_map_matches_sequential =
  (* Every item also runs exactly once, perturbed or not. *)
  QCheck.Test.make ~name:"work_queue: map = Array.init (any jobs/cap/seed)"
    ~count:60
    QCheck.(quad (int_bound 200) (int_range 1 8) (int_range 1 12) bool)
    (fun (n, jobs, cap, perturb) ->
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let f k =
        Atomic.incr runs.(k);
        busy_square k
      in
      let t = W.create (W.config ~jobs ~cap ~seed:(n + jobs) ()) in
      W.map t n (if perturb then perturbed ~seed:n f else f) = Array.init n busy_square
      && Array.for_all (fun c -> Atomic.get c = 1) runs)

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

(* The tests that take a [wrap] are registered twice: once with the
   items as given ([Fun.id]) and once [perturbed]. *)

let test_admission_cap_respected wrap () =
  (* A tight cap with slow items: the high-water mark must never pass
     the cap, and the producer must still finish the whole plan
     (backpressure turns it into a worker, not a deadlock). *)
  let cap = 3 in
  let slow k =
    let acc = ref k in
    for i = 0 to 5_000 do
      acc := !acc lxor (i * k)
    done;
    !acc
  in
  let t = W.create (W.config ~jobs:4 ~cap ()) in
  let r = W.map t 100 (wrap slow) in
  check Alcotest.int "all items ran" 100 (Array.length r);
  let hw = (W.stats t).W.s_max_pending in
  if hw > cap then Alcotest.failf "admission high-water %d exceeds cap %d" hw cap

let test_map_negative_size_rejected () =
  let t = W.create (W.config ~jobs:2 ()) in
  (try
     ignore (W.map t (-1) busy_square);
     Alcotest.fail "negative size accepted"
   with Invalid_argument _ -> ())

let test_map_lowest_failure_wins wrap () =
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
        ignore (W.map t 80 (wrap f));
        Alcotest.failf "jobs=%d: failure did not propagate" jobs
      with Failure msg ->
        check Alcotest.string (Printf.sprintf "jobs=%d: lowest index wins" jobs) "item-17" msg)
    [ 1; 4 ]

let test_map_runs_everything_below_failure wrap () =
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
         ignore (W.map t n (wrap f));
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
  check Alcotest.bool "cap >= 1" true (bad (fun () -> W.config ~cap:0 ()))

let test_config_defaults () =
  (* The documented defaults: every recommended domain, an admission cap
     of twice the workers but never below 16, victim seed 0. *)
  let jobs = Domain.recommended_domain_count () in
  let c = W.config () in
  check Alcotest.int "jobs" jobs c.W.jobs;
  check Alcotest.int "cap" (max 16 (2 * jobs)) c.W.cap;
  check Alcotest.int "seed" 0 c.W.seed;
  check Alcotest.int "cap floor" 16 (W.config ~jobs:3 ()).W.cap;
  check Alcotest.int "cap above the floor" 24 (W.config ~jobs:12 ()).W.cap;
  check Alcotest.int "given cap kept" 5 (W.config ~jobs:12 ~cap:5 ()).W.cap

let test_map_more_jobs_than_items () =
  let t = W.create (W.config ~jobs:8 ()) in
  check Alcotest.(array int) "3 items on 8 workers"
    (Array.init 3 busy_square) (W.map t 3 busy_square);
  check Alcotest.int "each item counted once" 3 (W.stats t).W.s_items

let test_map_sequential_in_order () =
  (* One worker: the items run on the calling domain, in index order, as
     [Array.init] runs them. *)
  let t = W.create (W.config ~jobs:1 ()) in
  let self = Domain.self () in
  let order = ref [] in
  ignore
    (W.map t 20 (fun k ->
         if Domain.self () <> self then Alcotest.fail "item left the calling domain";
         order := k :: !order;
         k));
  check Alcotest.(list int) "index order" (List.init 20 Fun.id) (List.rev !order)

let test_map_one_worker_never_steals () =
  (* One worker has no sibling to steal from, however slow its items. *)
  let events = Atomic.make 0 in
  let observer (W.Steal _) = Atomic.incr events in
  let t = W.create ~observer (W.config ~jobs:1 ()) in
  check Alcotest.(array int) "results" (Array.init 40 busy_square)
    (W.map t 40 (perturbed ~seed:13 busy_square));
  check Alcotest.int "no steal counted" 0 (W.stats t).W.s_steals;
  check Alcotest.int "no steal event" 0 (Atomic.get events)

let test_map_item_deadline_ends_with_item () =
  (* The harness arms each binary's deadline inside its item.  A deadline
     belongs to its domain and its scope, so an item whose budget ran out
     leaves nothing armed for the next item its worker takes. *)
  List.iter
    (fun jobs ->
      let t = W.create (W.config ~jobs ()) in
      let r =
        W.map t 60 (fun k ->
            let clean_before = not (Deadline.expired ()) in
            let expired =
              match
                Deadline.with_
                  ~seconds:(if k mod 2 = 0 then 1e-9 else 3600.0)
                  (fun () -> Deadline.check "item")
              with
              | () -> false
              | exception Deadline.Expired _ -> true
            in
            clean_before && expired = (k mod 2 = 0) && not (Deadline.expired ()))
      in
      check Alcotest.(array bool) (Printf.sprintf "jobs=%d: every item clean" jobs)
        (Array.make 60 true) r)
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
     an observer that raises on the worker's first steal) is re-raised in
     the caller, and the workers serve the next call. *)
  let raised = Atomic.make false in
  let observer (W.Steal { thief; _ }) =
    if thief > 0 then begin
      Atomic.set raised true;
      raise Exit
    end
  in
  let t = W.create ~observer (W.config ~jobs:2 ()) in
  let caller = Domain.self () in
  let f k =
    (* The caller holds its first item until the worker has raised, so
       the worker is sure to steal one. *)
    if Domain.self () = caller then begin
      let t0 = Unix.gettimeofday () in
      while (not (Atomic.get raised)) && Unix.gettimeofday () -. t0 < 10.0 do
        Domain.cpu_relax ()
      done
    end;
    busy_square k
  in
  (match W.map t 6 f with
  | _ -> Alcotest.fail "the escaped exception was not re-raised"
  | exception Exit -> ());
  let t = W.create (W.config ~jobs:2 ()) in
  check Alcotest.(array int) "the workers serve the next call" (Array.init 40 busy_square)
    (W.map t 40 busy_square)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_nested_deadline_never_extends =
  (* An inner deadline never extends the enclosing one, and never
     outlives its scope.  A budget below the clock's resolution has
     passed by the next check; an hours-long one has not, so inside both
     scopes the deadline reads expired exactly when either budget is
     tiny, and [check] raises exactly then; back in the outer scope only
     the outer budget counts. *)
  let budget = QCheck.(oneof [ float_range 1e-9 1e-8; float_range 3600.0 7200.0 ]) in
  QCheck.Test.make ~name:"deadline: nesting never extends the budget" ~count:50
    QCheck.(pair budget budget)
    (fun (outer_s, inner_s) ->
      let tiny s = s < 1.0 in
      let checked () =
        match Deadline.check "nest" with () -> false | exception Deadline.Expired _ -> true
      in
      Deadline.with_ ~seconds:outer_s (fun () ->
          let inner =
            Deadline.with_ ~seconds:inner_s (fun () -> (Deadline.expired (), checked ()))
          in
          let want = tiny outer_s || tiny inner_s in
          inner = (want, want) && Deadline.expired () = tiny outer_s))

let test_deadline_scope () =
  (* Armed inside [with_] only: before it, after a normal return and
     after a raise, nothing is armed and [check] returns. *)
  let disarmed what =
    check Alcotest.bool (what ^ ": none active") false (Deadline.active ());
    check Alcotest.bool (what ^ ": not expired") false (Deadline.expired ());
    Deadline.check what
  in
  disarmed "before";
  Deadline.with_ ~seconds:3600.0 (fun () ->
      check Alcotest.bool "inside: active" true (Deadline.active ());
      check Alcotest.bool "inside: not expired" false (Deadline.expired ());
      Deadline.check "inside");
  disarmed "after a return";
  (try Deadline.with_ ~seconds:1e-9 (fun () -> raise Exit) with Exit -> ());
  disarmed "after a raise"

let test_deadline_expired_names () =
  (* [Expired] names the loop that noticed and the armed budget, and a
     quarantine row's error text prints both. *)
  (match Deadline.with_ ~seconds:1e-9 (fun () -> Deadline.check "sweep") with
  | () -> Alcotest.fail "a spent budget did not expire"
  | exception Deadline.Expired { what; seconds } ->
    check Alcotest.string "loop" "sweep" what;
    check (Alcotest.float 0.0) "budget" 1e-9 seconds);
  check Alcotest.string "printed" "Deadline.Expired(sweep, budget 0.5s)"
    (Printexc.to_string (Deadline.Expired { what = "sweep"; seconds = 0.5 }))

let test_deadline_rejects_non_positive () =
  List.iter
    (fun seconds ->
      let ran = ref false in
      (match Deadline.with_ ~seconds (fun () -> ran := true) with
      | () -> Alcotest.failf "budget %g accepted" seconds
      | exception Invalid_argument _ -> ());
      check Alcotest.bool (Printf.sprintf "budget %g: body not run" seconds) false !ran;
      check Alcotest.bool (Printf.sprintf "budget %g: nothing armed" seconds) false
        (Deadline.active ()))
    (* NaN is no budget either: [now >= now + nan] never holds, so it
       would arm a deadline that never expires. *)
    [ 0.0; -0.0; -1.0; neg_infinity; nan ]

let test_deadline_domain_local () =
  (* A spent deadline on one domain does not reach another domain. *)
  Deadline.with_ ~seconds:1e-9 (fun () ->
      let other =
        Domain.join
          (Domain.spawn (fun () ->
               match Deadline.check "other" with
               | () -> not (Deadline.expired ())
               | exception Deadline.Expired _ -> false))
      in
      check Alcotest.bool "other domain unaffected" true other;
      check Alcotest.bool "own domain expired" true (Deadline.expired ()))

(* ------------------------------------------------------------------ *)
(* Events                                                             *)
(* ------------------------------------------------------------------ *)

let test_observer_sees_steals () =
  (* Every steal is one event naming two distinct workers of the pool. *)
  let jobs = 4 in
  let lock = Mutex.create () and steals = ref [] in
  let observer (W.Steal { thief; victim }) =
    Mutex.protect lock (fun () -> steals := (thief, victim) :: !steals)
  in
  let t = W.create ~observer (W.config ~jobs ()) in
  ignore (W.map t 200 (perturbed ~seed:17 busy_square));
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
          (test_admission_cap_respected Fun.id);
        Alcotest.test_case "map: admission cap respected, perturbed" `Quick
          (test_admission_cap_respected (perturbed ~seed:7));
        Alcotest.test_case "map: negative size rejected" `Quick
          test_map_negative_size_rejected;
        Alcotest.test_case "map: lowest failing index wins" `Quick
          (test_map_lowest_failure_wins Fun.id);
        Alcotest.test_case "map: lowest failing index wins, perturbed" `Quick
          (test_map_lowest_failure_wins (perturbed ~seed:7));
        Alcotest.test_case "config validation" `Quick test_config_validation;
        qcheck qcheck_map_matches_sequential;
        Alcotest.test_case "config: documented defaults" `Quick test_config_defaults;
        Alcotest.test_case "map: more jobs than items" `Quick
          test_map_more_jobs_than_items;
        Alcotest.test_case "map: one worker runs in index order" `Quick
          test_map_sequential_in_order;
        Alcotest.test_case "map: one worker never steals" `Quick
          test_map_one_worker_never_steals;
        Alcotest.test_case "map: an item's deadline ends with the item" `Quick
          test_map_item_deadline_ends_with_item;
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
        qcheck qcheck_nested_deadline_never_extends;
        Alcotest.test_case "deadline: armed only inside its scope" `Quick test_deadline_scope;
        Alcotest.test_case "deadline: Expired names the loop and the budget" `Quick
          test_deadline_expired_names;
        Alcotest.test_case "deadline: non-positive budget rejected" `Quick
          test_deadline_rejects_non_positive;
        Alcotest.test_case "deadline: armed on its own domain only" `Quick
          test_deadline_domain_local;
        Alcotest.test_case "observer: steal events" `Quick test_observer_sees_steals;
        Alcotest.test_case "map: every item below a failure runs" `Quick
          (test_map_runs_everything_below_failure Fun.id);
        Alcotest.test_case "map: every item below a failure runs, perturbed" `Quick
          (test_map_runs_everything_below_failure (perturbed ~seed:7));
      ] );
  ]
