(* Tests for cet_util: PRNG, LEB128, byte IO, interval table, hexdump,
   the JSON escaper and reader, diagnostics. *)

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
    check Alcotest.int "same stream" (Prng.int a max_int) (Prng.int b max_int)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int a max_int = Prng.int b max_int then incr same
  done;
  check Alcotest.int "different seeds diverge" 0 !same

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

let test_prng_choose_uniform () =
  let g = Prng.create 23 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let k = Prng.choose g [| 0; 1; 2; 3 |] in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      if c < 850 || c > 1150 then Alcotest.failf "element %d drawn %d times in 4000, not ~1000" k c)
    counts

let test_prng_bool_fair () =
  let g = Prng.create 29 in
  let heads = ref 0 in
  for _ = 1 to 4000 do
    if Prng.bool g then incr heads
  done;
  if !heads < 1850 || !heads > 2150 then Alcotest.failf "%d heads in 4000, not ~2000" !heads

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
  check Alcotest.int "all read" (String.length (W.contents w)) (R.pos r)

let test_r_sub_bounds () =
  let r = R.sub "abcdef" ~pos:2 ~len:2 in
  check Alcotest.int "first" (Char.code 'c') (R.u8 r);
  check Alcotest.int "second" (Char.code 'd') (R.u8 r);
  Alcotest.check_raises "oob" (R.Out_of_bounds "u8") (fun () -> ignore (R.u8 r))

let test_r_seek () =
  let r = R.of_string "abcd" in
  R.seek r 2;
  check Alcotest.int "after seek" (Char.code 'c') (R.u8 r);
  check Alcotest.int "pos" 3 (R.pos r)

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
  let t = Itable.of_list_lenient [ (10, 20); (30, 40); (20, 25) ] in
  check Alcotest.bool "hit" true (Itable.mem t 15);
  check Alcotest.bool "hit at lo" true (Itable.mem t 20);
  check Alcotest.bool "miss" false (Itable.mem t 27);
  check Alcotest.bool "mem" true (Itable.mem t 39);
  check Alcotest.bool "boundary exclusive" false (Itable.mem t 40)

let test_itable_empty_dropped () =
  let t = Itable.of_list_lenient [ (5, 5); (1, 2) ] in
  check Alcotest.bool "empty dropped" false (Itable.mem t 5);
  check Alcotest.bool "other kept" true (Itable.mem t 1)

(* Ibuf against the list model: pushes past the initial capacity (and
   from capacity 0) keep every value in order, and the fill count counts
   them. *)
let qcheck_ibuf_vs_list =
  QCheck.Test.make ~name:"ibuf = list model" ~count:200
    QCheck.(pair (int_bound 3) (list small_int))
    (fun (capacity, xs) ->
      let b = Cet_util.Ibuf.create ~capacity () in
      List.iter (Cet_util.Ibuf.push b) xs;
      let snapshot = Cet_util.Ibuf.contents b in
      Array.to_list snapshot = xs && b.Cet_util.Ibuf.len = List.length xs)

let qcheck_itable_vs_linear =
  (* Build disjoint intervals from a sorted list of cut points and compare
     binary search against a linear scan. *)
  let gen = QCheck.(list_of_size Gen.(return 8) (int_bound 1000)) in
  QCheck.Test.make ~name:"itable find = linear find" ~count:200 gen (fun cuts ->
      let cuts = List.sort_uniq compare cuts in
      let rec pair = function
        | a :: b :: rest -> (a, b) :: pair rest
        | _ -> []
      in
      let ivs = pair cuts in
      let t = Itable.of_list_lenient ivs in
      List.for_all
        (fun x -> Itable.mem t x = List.exists (fun (lo, hi) -> x >= lo && x < hi) ivs)
        (List.init 50 (fun i -> i * 20)))

(* Possibly overlapping and empty intervals, as corrupt FDE extents give,
   against the documented rule run on a list: in [lo] order (stable), an
   interval is kept when it starts at or after the end of the last one
   kept. *)
let qcheck_itable_lenient =
  let gen = QCheck.(small_list (pair (int_bound 200) (int_bound 40))) in
  QCheck.Test.make ~name:"itable lenient = first-of-run model" ~count:300 gen (fun spans ->
      let ivs = List.map (fun (lo, len) -> (lo, lo + len)) spans in
      let kept =
        List.filter (fun (lo, hi) -> lo < hi) ivs
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.fold_left
             (fun kept (lo, hi) ->
               match kept with (_, last_hi) :: _ when lo < last_hi -> kept | _ -> (lo, hi) :: kept)
             []
      in
      let t = Itable.of_list_lenient ivs in
      List.for_all
        (fun x -> Itable.mem t x = List.exists (fun (lo, hi) -> x >= lo && x < hi) kept)
        (List.init 260 Fun.id))

(* ------------------------------------------------------------------ *)
(* Hexdump                                                            *)
(* ------------------------------------------------------------------ *)

let test_hexdump_inline () =
  check Alcotest.string "inline" "f3 0f 1e fa"
    (Hexdump.bytes_inline "\xf3\x0f\x1e\xfa")

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

(* The one escaper every report writer uses round-trips through the
   reader, control bytes and quotes included. *)
let qcheck_jsonl_escape_roundtrip =
  QCheck.Test.make ~name:"escape: parse (quoted (escape s)) = Str s" ~count:500
    QCheck.(string_gen (Gen.map Char.chr (Gen.int_range 0 0x7f)))
    (fun s -> Jz.parse ("\"" ^ Jz.escape s ^ "\"") = Ok (Jz.Str s))

(* The escaper's exact output: the report files are pinned byte for
   byte, so the short escapes, the lowercase [\u00XX] form and the bytes
   copied as they are all matter, not only that the reader recovers the
   string. *)
let test_jsonl_escape_forms () =
  List.iter
    (fun (input, want) -> check Alcotest.string (String.escaped input) want (Jz.escape input))
    [
      ("", "");
      ("plain text", "plain text");
      ("\"", {|\"|});
      ("\\", {|\\|});
      ("\n\r\t", {|\n\r\t|});
      ("\x00\x08\x0c\x1b\x1f", {|\u0000\u0008\u000c\u001b\u001f|});
      ("/ \x7f", "/ \x7f");
      ("Failure(\"bad \\ byte\ttab\")", {|Failure(\"bad \\ byte\ttab\")|});
    ]

let test_jsonl_escape_utf8 () =
  (* Bytes from 0x80 up are copied, so UTF-8 text (a path, a symbol
     name) reaches the file as it is and reads back whole. *)
  let read_back s = Jz.parse ("\"" ^ Jz.escape s ^ "\"") = Ok (Jz.Str s) in
  List.iter
    (fun s ->
      check Alcotest.string ("copied: " ^ s) s (Jz.escape s);
      check Alcotest.bool ("read back: " ^ s) true (read_back s))
    [ "caf\xc3\xa9"; "\xe2\x86\x92"; "\xf0\x9f\x98\x80" ];
  let mixed = "src/\xc3\xbc\"x\"\n" in
  check Alcotest.string "mixed: only the ASCII escaped" ("src/\xc3\xbc" ^ {|\"x\"\n|})
    (Jz.escape mixed);
  check Alcotest.bool "mixed: read back" true (read_back mixed)

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                        *)
(* ------------------------------------------------------------------ *)

module Diag = Cet_util.Diag

let test_diag_collector_cap () =
  (* A collector keeps diagnostics in emission order up to its cap, then
     one [diag/truncated] marker. *)
  let c = Diag.Collector.create () in
  check Alcotest.int "fresh: nothing retained" 0 (List.length (Diag.Collector.list c));
  for i = 0 to 299 do
    Diag.Collector.addf c ~domain:"eh" ~code:"lsda" "entry %d" i
  done;
  let kept = Diag.Collector.list c in
  check Alcotest.int "retained up to the cap, plus the marker" 257 (List.length kept);
  List.iteri
    (fun i (d : Diag.t) ->
      if i < 256 then
        check Alcotest.string "emission order" (Printf.sprintf "entry %d" i) d.Diag.message
      else begin
        check Alcotest.string "marker domain" "diag" d.Diag.domain;
        check Alcotest.string "marker code" "truncated" d.Diag.code
      end)
    kept

let test_diag_rendering () =
  let i = Diag.make ~severity:Diag.Info ~domain:"elf" ~code:"note" "fine"
  and e = Diag.error ~domain:"core" ~code:"no-text" "no .text"
  and w2 = Diag.makef ~domain:"eh" ~code:"lsda" "skipped %d LSDAs" 3 in
  check Alcotest.string "makef defaults to warning" "warning [eh/lsda]: skipped 3 LSDAs"
    (Diag.to_string w2);
  check Alcotest.string "one line each"
    "info [elf/note]: fine\nerror [core/no-text]: no .text\n"
    (Diag.render [ i; e ]);
  check Alcotest.string "nothing renders empty" "" (Diag.render [])

let suite =
  [
    ( "util.jsonl",
      [
        qcheck qcheck_jsonl_escape_roundtrip;
        Alcotest.test_case "surrogate pairs combine" `Quick
          test_jsonl_surrogate_pair;
        Alcotest.test_case "lone surrogate lenient" `Quick
          test_jsonl_lone_surrogate_lenient;
        Alcotest.test_case "deep array nesting" `Quick test_jsonl_deep_nesting;
        Alcotest.test_case "NaN/Infinity rejected" `Quick
          test_jsonl_rejects_nonfinite;
        Alcotest.test_case "trailing garbage offset" `Quick
          test_jsonl_trailing_garbage_offset;
        Alcotest.test_case "escape: short and \\u00XX forms" `Quick test_jsonl_escape_forms;
        Alcotest.test_case "escape: UTF-8 copied" `Quick test_jsonl_escape_utf8;
      ] );
    ( "util.diag",
      [
        Alcotest.test_case "collector: order, cap and count" `Quick test_diag_collector_cap;
        Alcotest.test_case "rendering" `Quick test_diag_rendering;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "in_range bounds" `Quick test_prng_in_range;
        Alcotest.test_case "float unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_prng_chance_rate;
        Alcotest.test_case "choose_weighted ratio" `Quick test_prng_choose_weighted;
        Alcotest.test_case "choose uniform" `Quick test_prng_choose_uniform;
        Alcotest.test_case "bool fair" `Quick test_prng_bool_fair;
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
        Alcotest.test_case "empty dropped" `Quick test_itable_empty_dropped;
        qcheck qcheck_itable_vs_linear;
        qcheck qcheck_itable_lenient;
      ] );
    ("util.ibuf", [ qcheck qcheck_ibuf_vs_list ]);
    ( "util.hexdump",
      [
        Alcotest.test_case "inline" `Quick test_hexdump_inline;
      ] );
  ]
