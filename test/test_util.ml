(* Tests for cet_util: PRNG, LEB128, byte IO, interval table, hexdump. *)

module Prng = Cet_util.Prng
module Leb = Cet_util.Leb128
module W = Cet_util.Bytesio.W
module R = Cet_util.Bytesio.R
module Itable = Cet_util.Itable

let check = Alcotest.check
let qcheck t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* PRNG                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next64 a = Prng.next64 b then incr same
  done;
  check Alcotest.int "different seeds diverge" 0 !same

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let s = Prng.split g in
  (* The split stream must not equal the parent's continuation. *)
  check Alcotest.bool "split differs" true (Prng.next64 s <> Prng.next64 g)

let test_prng_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds"
  done

let test_prng_in_range () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.in_range g 5 9 in
    if v < 5 || v > 9 then Alcotest.fail "in_range out of bounds"
  done

let test_prng_float_unit () =
  let g = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_prng_chance_extremes () =
  let g = Prng.create 5 in
  for _ = 1 to 100 do
    if Prng.chance g 0.0 then Alcotest.fail "chance 0 fired";
    if not (Prng.chance g 1.0) then Alcotest.fail "chance 1 missed"
  done

let test_prng_chance_rate () =
  let g = Prng.create 11 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Prng.chance g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.3) > 0.02 then
    Alcotest.failf "chance rate %f too far from 0.3" rate

let test_prng_choose_weighted () =
  let g = Prng.create 13 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 10000 do
    match Prng.choose_weighted g [ ("a", 3.0); ("b", 1.0) ] with
    | "a" -> incr a
    | _ -> incr b
  done;
  let ratio = float_of_int !a /. float_of_int !b in
  if ratio < 2.5 || ratio > 3.6 then Alcotest.failf "weighted ratio %f not ~3" ratio

let test_prng_shuffle_permutation () =
  let g = Prng.create 17 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* LEB128                                                             *)
(* ------------------------------------------------------------------ *)

let uleb_roundtrip v =
  let buf = Buffer.create 8 in
  Leb.write_u buf v;
  let r, next = Leb.read_u (Buffer.contents buf) 0 in
  r = v && next = Buffer.length buf

let sleb_roundtrip v =
  let buf = Buffer.create 8 in
  Leb.write_s buf v;
  let r, next = Leb.read_s (Buffer.contents buf) 0 in
  r = v && next = Buffer.length buf

let test_leb_golden () =
  let enc v =
    let buf = Buffer.create 8 in
    Leb.write_u buf v;
    Buffer.contents buf
  in
  check Alcotest.string "0" "\x00" (enc 0);
  check Alcotest.string "127" "\x7f" (enc 127);
  check Alcotest.string "128" "\x80\x01" (enc 128);
  check Alcotest.string "624485" "\xe5\x8e\x26" (enc 624485)

let test_sleb_golden () =
  let enc v =
    let buf = Buffer.create 8 in
    Leb.write_s buf v;
    Buffer.contents buf
  in
  check Alcotest.string "-1" "\x7f" (enc (-1));
  check Alcotest.string "-128" "\x80\x7f" (enc (-128));
  check Alcotest.string "63" "\x3f" (enc 63);
  check Alcotest.string "-64" "\x40" (enc (-64))

let test_leb_truncated () =
  Alcotest.check_raises "truncated uleb" (Invalid_argument "Leb128: truncated input")
    (fun () -> ignore (Leb.read_u "\x80" 1))

let qcheck_uleb =
  QCheck.Test.make ~name:"uleb roundtrip" ~count:500
    QCheck.(map abs small_int)
    uleb_roundtrip

let qcheck_uleb_large =
  QCheck.Test.make ~name:"uleb roundtrip (large)" ~count:500
    QCheck.(map (fun x -> abs x) int)
    uleb_roundtrip

let qcheck_sleb =
  QCheck.Test.make ~name:"sleb roundtrip" ~count:500 QCheck.int sleb_roundtrip

let test_leb_size () =
  check Alcotest.int "size 0" 1 (Leb.size_u 0);
  check Alcotest.int "size 127" 1 (Leb.size_u 127);
  check Alcotest.int "size 128" 2 (Leb.size_u 128);
  check Alcotest.int "size 1M" 3 (Leb.size_u 1_000_000)

(* ------------------------------------------------------------------ *)
(* Bytesio                                                            *)
(* ------------------------------------------------------------------ *)

let test_w_little_endian () =
  let w = W.create () in
  W.u16 w 0x1234;
  W.u32 w 0xAABBCCDD;
  check Alcotest.string "le bytes" "\x34\x12\xdd\xcc\xbb\xaa" (W.contents w)

let test_w_align_pad () =
  let w = W.create () in
  W.u8 w 1;
  W.align w 4;
  check Alcotest.int "aligned" 4 (W.length w);
  W.pad_to w 10;
  check Alcotest.int "padded" 10 (W.length w);
  W.pad_to w 5;
  check Alcotest.int "no shrink" 10 (W.length w)

let test_r_roundtrip () =
  let w = W.create () in
  W.u8 w 0xAB;
  W.u16 w 0xCDEF;
  W.u32 w 0x12345678;
  W.u64 w 0x1122334455;
  W.i32 w (-42);
  let r = R.of_string (W.contents w) in
  check Alcotest.int "u8" 0xAB (R.u8 r);
  check Alcotest.int "u16" 0xCDEF (R.u16 r);
  check Alcotest.int "u32" 0x12345678 (R.u32 r);
  check Alcotest.int "u64" 0x1122334455 (R.u64 r);
  check Alcotest.int "i32" (-42) (R.i32 r);
  check Alcotest.bool "eof" true (R.eof r)

let test_r_sub_bounds () =
  let r = R.sub "abcdef" ~pos:2 ~len:2 in
  check Alcotest.int "first" (Char.code 'c') (R.u8 r);
  check Alcotest.int "second" (Char.code 'd') (R.u8 r);
  Alcotest.check_raises "oob" (R.Out_of_bounds "u8") (fun () -> ignore (R.u8 r))

let test_r_seek () =
  let r = R.of_string "abcd" in
  R.seek r 2;
  check Alcotest.int "after seek" (Char.code 'c') (R.u8 r);
  check Alcotest.int "pos" 3 (R.pos r);
  check Alcotest.int "remaining" 1 (R.remaining r)

let qcheck_bytesio_u32 =
  QCheck.Test.make ~name:"u32 roundtrip" ~count:500
    QCheck.(map (fun x -> abs x land 0xFFFFFFFF) int)
    (fun v ->
      let w = W.create () in
      W.u32 w v;
      R.u32 (R.of_string (W.contents w)) = v)

let qcheck_bytesio_uleb =
  QCheck.Test.make ~name:"writer uleb = reader uleb" ~count:500
    QCheck.(map abs small_int)
    (fun v ->
      let w = W.create () in
      W.uleb w v;
      R.uleb (R.of_string (W.contents w)) = v)

(* ------------------------------------------------------------------ *)
(* Itable                                                             *)
(* ------------------------------------------------------------------ *)

let test_itable_find () =
  let t = Itable.of_list [ (10, 20, "a"); (30, 40, "b"); (20, 25, "c") ] in
  check Alcotest.int "cardinal" 3 (Itable.cardinal t);
  check Alcotest.(option (triple int int string)) "hit a" (Some (10, 20, "a"))
    (Itable.find t 15);
  check Alcotest.(option (triple int int string)) "hit c" (Some (20, 25, "c"))
    (Itable.find t 20);
  check Alcotest.(option (triple int int string)) "miss" None (Itable.find t 27);
  check Alcotest.bool "mem" true (Itable.mem t 39);
  check Alcotest.bool "boundary exclusive" false (Itable.mem t 40)

let test_itable_overlap_rejected () =
  Alcotest.check_raises "overlap" (Invalid_argument "Itable.of_list: overlapping intervals")
    (fun () -> ignore (Itable.of_list [ (0, 10, ()); (5, 15, ()) ]))

let test_itable_empty_dropped () =
  let t = Itable.of_list [ (5, 5, "x"); (1, 2, "y") ] in
  check Alcotest.int "empty dropped" 1 (Itable.cardinal t)

(* Ibuf against the list model: pushes past the initial capacity (and
   from capacity 0) keep every value in order, pops come back last in
   first out, and [contents] is a copy. *)
let qcheck_ibuf_vs_list =
  QCheck.Test.make ~name:"ibuf = list model" ~count:200
    QCheck.(pair (int_bound 3) (list small_int))
    (fun (capacity, xs) ->
      let b = Cet_util.Ibuf.create ~capacity () in
      List.iter (Cet_util.Ibuf.push b) xs;
      let snapshot = Cet_util.Ibuf.contents b in
      let popped = List.init (List.length xs) (fun _ -> Cet_util.Ibuf.pop b) in
      Array.to_list snapshot = xs
      && popped = List.rev xs
      && Cet_util.Ibuf.length b = 0
      && (try ignore (Cet_util.Ibuf.pop b); false with Invalid_argument _ -> true))

let qcheck_itable_vs_linear =
  (* Build disjoint intervals from a sorted list of cut points and compare
     binary search against a linear scan. *)
  let gen = QCheck.(list_of_size Gen.(return 8) (int_bound 1000)) in
  QCheck.Test.make ~name:"itable find = linear find" ~count:200 gen (fun cuts ->
      let cuts = List.sort_uniq compare cuts in
      let rec pair = function
        | a :: b :: rest -> (a, b, a) :: pair rest
        | _ -> []
      in
      let ivs = pair cuts in
      let t = Itable.of_list ivs in
      List.for_all
        (fun x ->
          let linear = List.find_opt (fun (lo, hi, _) -> x >= lo && x < hi) ivs in
          Itable.find t x = linear)
        (List.init 50 (fun i -> i * 20)))

(* ------------------------------------------------------------------ *)
(* Hexdump                                                            *)
(* ------------------------------------------------------------------ *)

let test_hexdump_inline () =
  check Alcotest.string "inline" "f3 0f 1e fa"
    (Cet_util.Hexdump.bytes_inline "\xf3\x0f\x1e\xfa")

let test_hexdump_lines () =
  let out = Cet_util.Hexdump.of_string ~base:0x1000 (String.make 20 'A') in
  check Alcotest.bool "has base addr" true
    (String.length out > 0 && String.sub out 0 8 = "00001000");
  check Alcotest.int "two lines" 2
    (List.length (String.split_on_char '\n' (String.trim out)))

(* ------------------------------------------------------------------ *)
(* Bench_rows (bin/bench_diff's parser and differ)                    *)
(* ------------------------------------------------------------------ *)

module Bench_rows = Cet_util.Bench_rows

let test_bench_rows_plain () =
  let line =
    {|  {"name": "table3/funseeker(spec)", "mean_ns": 1500000.500, "runs": 7},|}
  in
  match Bench_rows.parse_line line with
  | None -> Alcotest.fail "row expected"
  | Some r ->
    check Alcotest.string "name" "table3/funseeker(spec)" r.Bench_rows.name;
    check (Alcotest.float 1e-6) "mean" 1500000.5 r.Bench_rows.mean_ns;
    check Alcotest.int "runs" 7 r.Bench_rows.runs

let test_bench_rows_key_in_value () =
  (* Regression: the old substring scanner matched the key-shaped token
     inside the quoted VALUE first and misread this row's name. *)
  let line =
    {|  {"note": "has \"name\": inside", "name": "real", "mean_ns": 2.0, "runs": 1},|}
  in
  match Bench_rows.parse_line line with
  | None -> Alcotest.fail "row expected"
  | Some r -> check Alcotest.string "name" "real" r.Bench_rows.name

let test_bench_rows_longer_key () =
  (* A longer key containing the requested one must never satisfy it. *)
  let line = {|{"filename": "bogus", "name": "real", "mean_ns": 3.5}|} in
  check
    (Alcotest.option Alcotest.string)
    "name" (Some {|"real"|})
    (Bench_rows.field line "name");
  check
    (Alcotest.option Alcotest.string)
    "no name" None
    (Bench_rows.field {|{"filename": "x", "mean_ns": 1.0}|} "name")

let test_bench_rows_dups () =
  let rows, dups =
    Bench_rows.parse_lines
      [
        {|{"name": "a", "mean_ns": 1.0, "runs": 1},|};
        {|{"name": "a", "mean_ns": 2.0, "runs": 1},|};
        {|{"name": "b", "mean_ns": 3.0, "runs": 1},|};
      ]
  in
  check Alcotest.(list string) "dups" [ "a" ] dups;
  check
    Alcotest.(list string)
    "names" [ "a"; "b" ]
    (List.map (fun r -> r.Bench_rows.name) rows);
  check (Alcotest.float 0.0) "first wins" 1.0 (List.hd rows).Bench_rows.mean_ns

let test_bench_rows_diff_missing () =
  (* Regression: a bench renamed between OLD and NEW silently vanished from
     the gate — the report must surface it so --require-all can fail. *)
  let row name mean_ns = { Bench_rows.name; mean_ns; runs = 1 } in
  let report =
    Bench_rows.diff ~threshold:20.0
      [ row "kept" 100.0; row "renamed-away" 50.0 ]
      [ row "kept" 130.0; row "brand-new" 10.0 ]
  in
  check Alcotest.(list string) "missing" [ "renamed-away" ] report.Bench_rows.missing;
  check Alcotest.(list string) "added" [ "brand-new" ] report.Bench_rows.added;
  check Alcotest.int "regressed" 1 report.Bench_rows.regressed;
  check Alcotest.int "compared" 1 (List.length report.Bench_rows.compared)

(* ------------------------------------------------------------------ *)
(* Jsonl reader edge cases                                            *)
(* ------------------------------------------------------------------ *)

module Jz = Cet_util.Jsonl

let jz_ok s =
  match Jz.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let jz_err s =
  match Jz.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error e -> e

let test_jsonl_surrogate_pair () =
  (* RFC 8259 spells astral codepoints as a UTF-16 surrogate pair of two
     \u escapes; the reader must fuse them into one 4-byte scalar. *)
  check Alcotest.string "U+1F600" "\xf0\x9f\x98\x80"
    (Option.get (Jz.str (jz_ok {|"\uD83D\uDE00"|})));
  (* A pair split by anything isn't a pair: each escape stands alone. *)
  check Alcotest.string "interrupted pair" "\xed\xa0\xbdx\xed\xb8\x80"
    (Option.get (Jz.str (jz_ok {|"\uD83Dx\uDE00"|})))

let test_jsonl_lone_surrogate_lenient () =
  (* No conforming writer emits a lone surrogate; reading one is lenient
     WTF-8 (3-byte form), not a parse error. *)
  check Alcotest.string "lone high" "\xed\xa0\xbd"
    (Option.get (Jz.str (jz_ok {|"\uD83D"|})));
  check Alcotest.string "lone low" "\xed\xb8\x80"
    (Option.get (Jz.str (jz_ok {|"\uDE00"|})))

let test_jsonl_deep_nesting () =
  let depth = 256 in
  let doc = String.make depth '[' ^ "1" ^ String.make depth ']' in
  let rec unwrap n v =
    if n = 0 then v
    else
      match Jz.list v with
      | Some [ inner ] -> unwrap (n - 1) inner
      | _ -> Alcotest.failf "level %d is not a singleton array" (depth - n)
  in
  check (Alcotest.float 0.0) "innermost" 1.0
    (Option.get (Jz.num (unwrap depth (jz_ok doc))))

let test_jsonl_rejects_nonfinite () =
  (* RFC 8259 has no NaN/Infinity tokens; accepting them would let a
     damaged report round-trip as numbers that poison every aggregate. *)
  List.iter
    (fun s -> ignore (jz_err s))
    [ "NaN"; "Infinity"; "-Infinity"; {|{"total_ms":NaN}|} ]

let test_jsonl_trailing_garbage_offset () =
  (* The error pinpoints the first offending byte so a truncated or
     concatenated line is findable in a multi-megabyte report. *)
  check Alcotest.string "offset" "byte 8: trailing input" (jz_err {|{"a":1} x|});
  match Jz.parse_lines "{\"ok\":1}\n{\"bad\"\n{\"ok\":2}" with
  | Ok _ -> Alcotest.fail "bad line accepted"
  | Error e ->
    check Alcotest.bool "line number" true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:")

(* ------------------------------------------------------------------ *)
(* Bench history geomean                                              *)
(* ------------------------------------------------------------------ *)

let test_bench_rows_geomean () =
  let row name mean_ns = { Bench_rows.name; mean_ns; runs = 1 } in
  (* 2x and 0.5x cancel in log space: geomean exactly 1. *)
  (match
     Bench_rows.geomean_ratio
       [ row "a" 100.0; row "b" 100.0; row "only-old" 1.0 ]
       [ row "a" 200.0; row "b" 50.0; row "only-new" 1.0 ]
   with
  | Some (g, n) ->
    check Alcotest.int "shared rows" 2 n;
    check (Alcotest.float 1e-9) "geomean" 1.0 g
  | None -> Alcotest.fail "expected a geomean");
  check Alcotest.bool "no shared rows" true
    (Bench_rows.geomean_ratio [ row "a" 1.0 ] [ row "b" 1.0 ] = None)

let suite =
  [
    ( "util.jsonl",
      [
        Alcotest.test_case "surrogate pairs combine" `Quick
          test_jsonl_surrogate_pair;
        Alcotest.test_case "lone surrogate lenient" `Quick
          test_jsonl_lone_surrogate_lenient;
        Alcotest.test_case "deep array nesting" `Quick test_jsonl_deep_nesting;
        Alcotest.test_case "NaN/Infinity rejected" `Quick
          test_jsonl_rejects_nonfinite;
        Alcotest.test_case "trailing garbage offset" `Quick
          test_jsonl_trailing_garbage_offset;
      ] );
    ( "util.bench_rows",
      [
        Alcotest.test_case "plain row" `Quick test_bench_rows_plain;
        Alcotest.test_case "key token inside a value" `Quick
          test_bench_rows_key_in_value;
        Alcotest.test_case "longer key rejected" `Quick test_bench_rows_longer_key;
        Alcotest.test_case "duplicates keep first" `Quick test_bench_rows_dups;
        Alcotest.test_case "diff reports missing benches" `Quick
          test_bench_rows_diff_missing;
        Alcotest.test_case "history geomean" `Quick test_bench_rows_geomean;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "in_range bounds" `Quick test_prng_in_range;
        Alcotest.test_case "float unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_prng_chance_rate;
        Alcotest.test_case "choose_weighted ratio" `Quick test_prng_choose_weighted;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
      ] );
    ( "util.leb128",
      [
        Alcotest.test_case "uleb golden" `Quick test_leb_golden;
        Alcotest.test_case "sleb golden" `Quick test_sleb_golden;
        Alcotest.test_case "truncated input" `Quick test_leb_truncated;
        Alcotest.test_case "size_u" `Quick test_leb_size;
        qcheck qcheck_uleb;
        qcheck qcheck_uleb_large;
        qcheck qcheck_sleb;
      ] );
    ( "util.bytesio",
      [
        Alcotest.test_case "little endian" `Quick test_w_little_endian;
        Alcotest.test_case "align/pad" `Quick test_w_align_pad;
        Alcotest.test_case "writer/reader roundtrip" `Quick test_r_roundtrip;
        Alcotest.test_case "sub bounds" `Quick test_r_sub_bounds;
        Alcotest.test_case "seek" `Quick test_r_seek;
        qcheck qcheck_bytesio_u32;
        qcheck qcheck_bytesio_uleb;
      ] );
    ( "util.itable",
      [
        Alcotest.test_case "find/mem" `Quick test_itable_find;
        Alcotest.test_case "overlap rejected" `Quick test_itable_overlap_rejected;
        Alcotest.test_case "empty dropped" `Quick test_itable_empty_dropped;
        qcheck qcheck_itable_vs_linear;
      ] );
    ("util.ibuf", [ qcheck qcheck_ibuf_vs_list ]);
    ( "util.hexdump",
      [
        Alcotest.test_case "inline" `Quick test_hexdump_inline;
        Alcotest.test_case "line format" `Quick test_hexdump_lines;
      ] );
  ]
