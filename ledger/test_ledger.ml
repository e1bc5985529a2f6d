(* Unit tests of the benchmark's statistics, comparison rules and
   BENCHMARK.json handling. *)

open Ledger_lib

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check close "one" 7.0 (Stats.median [ 7.0 ])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles (List.map float_of_int xs) in
  let check name (a, b, c) xs =
    let x, y, z = q xs in
    Alcotest.check close (name ^ " q1") a x;
    Alcotest.check close (name ^ " q2") b y;
    Alcotest.check close (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check "1..4" (1.25, 2.5, 3.75) [ 4; 3; 2; 1 ];
  check "1..5" (1.5, 3.0, 4.5) [ 1; 2; 3; 4; 5 ];
  check "two, extrapolated" (0.75, 1.5, 2.25) [ 1; 2 ];
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_mad () =
  Alcotest.check close "mad" 1.0 (Stats.mad [ 1.0; 2.0; 3.0; 4.0; 100.0 ]);
  Alcotest.check close "constant" 0.0 (Stats.mad [ 2.0; 2.0; 2.0 ])

let test_percentile_rule () =
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50 is a sample" 100.0 (Stats.percentile xs 50.0);
  Alcotest.check close "p95 nearest rank" 190.0 (Stats.percentile xs 95.0);
  Alcotest.(check bool) "p95 of 200 has 10 beyond" true (Stats.reportable ~n:200 95.0);
  Alcotest.(check bool) "p95 of 199 has 9 beyond" false (Stats.reportable ~n:199 95.0);
  Alcotest.(check bool) "p99 of 999 has 9 beyond" false (Stats.reportable ~n:999 99.0);
  let ps = [ 50.0; 90.0; 95.0; 99.0 ] in
  Alcotest.(check (option close)) "highest at 120" (Some 90.0) (Stats.highest_reportable ~n:120 ps);
  Alcotest.(check (option close)) "highest at 1000" (Some 99.0) (Stats.highest_reportable ~n:1000 ps);
  Alcotest.(check (option close)) "none at 15" None (Stats.highest_reportable ~n:15 ps)

let test_bounds () =
  let open Stats in
  Alcotest.(check bool) "lower: +9% within 10%" false
    (regressed ~better:Lower ~bound:0.1 ~base:100.0 ~cand:109.0);
  Alcotest.(check bool) "lower: +11% beyond 10%" true
    (regressed ~better:Lower ~bound:0.1 ~base:100.0 ~cand:111.0);
  Alcotest.(check bool) "higher: -11% beyond 10%" true
    (regressed ~better:Higher ~bound:0.1 ~base:100.0 ~cand:89.0);
  Alcotest.(check bool) "higher: +50% is no regression" false
    (regressed ~better:Higher ~bound:0.1 ~base:100.0 ~cand:150.0);
  Alcotest.(check bool) "zero bound: any failure regresses" true
    (regressed ~better:Lower ~bound:0.0 ~base:0.0 ~cand:0.001);
  Alcotest.(check bool) "zero bound: none stays clean" false
    (regressed ~better:Lower ~bound:0.0 ~base:0.0 ~cand:0.0)

let test_verdict () =
  let open Stats in
  let pairs f = List.init 10 (fun i -> let x = 100.0 +. float_of_int i in (x, f x)) in
  Alcotest.(check string) "same" (string_of_verdict Within)
    (string_of_verdict (verdict ~better:Lower ~bound:0.1 ~pairs:(pairs (fun x -> x))));
  Alcotest.(check string) "20% slower" (string_of_verdict Regressed)
    (string_of_verdict (verdict ~better:Lower ~bound:0.1 ~pairs:(pairs (fun x -> x *. 1.2))));
  Alcotest.(check string) "20% faster, every pair" (string_of_verdict Gain)
    (string_of_verdict (verdict ~better:Lower ~bound:0.1 ~pairs:(pairs (fun x -> x *. 0.8))));
  Alcotest.(check string) "nine pairs are too few for a gain" (string_of_verdict Within)
    (string_of_verdict
       (verdict ~better:Lower ~bound:0.25 ~pairs:(List.filteri (fun i _ -> i < 9) (pairs (fun x -> x *. 0.8)))));
  let noisy = List.init 10 (fun i -> let x = if i mod 2 = 0 then 50.0 else 150.0 in (x, x *. 1.2)) in
  Alcotest.(check string) "old spread wider than bound" (string_of_verdict Unresolved)
    (string_of_verdict (verdict ~better:Lower ~bound:0.1 ~pairs:noisy))

let spec_text () = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all

let test_round_trip () =
  match Spec.parse (spec_text ()) with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
    let printed = Json.to_string (Spec.to_json spec) in
    match Spec.parse printed with
    | Error e -> Alcotest.fail e
    | Ok again ->
      Alcotest.(check bool) "parse . print . parse = parse" true (spec = again);
      Alcotest.(check string) "print is stable" printed (Json.to_string (Spec.to_json again)))

let test_spec_rules () =
  let bad what s = match Spec.parse s with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  let text = spec_text () in
  (* [text] with the first [a] replaced by [b]. *)
  let replace a b =
    let la = String.length a in
    let rec find i =
      if i + la > String.length text then Alcotest.failf "%S not in BENCHMARK.json" a
      else if String.sub text i la = a then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub text 0 i ^ b ^ String.sub text (i + la) (String.length text - i - la)
  in
  bad "bound above 0.25" (replace "\"bound\": 0.25" "\"bound\": 0.3");
  bad "extra key" (replace "\"run_seconds\"" "\"extra\": 1, \"run_seconds\"");
  bad "missing setup_s" (replace "\"setup_s\"" "\"setup_time\"");
  bad "duplicate metric" (replace "\"latency_p95_ms\"" "\"latency_p50_ms\"")

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles as python" `Quick test_quartiles;
          Alcotest.test_case "mad" `Quick test_mad;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "relative and zero bounds" `Quick test_bounds;
          Alcotest.test_case "paired verdicts" `Quick test_verdict;
        ] );
      ( "spec",
        [
          Alcotest.test_case "BENCHMARK.json round trip" `Quick test_round_trip;
          Alcotest.test_case "contract rules" `Quick test_spec_rules;
        ] );
    ]
