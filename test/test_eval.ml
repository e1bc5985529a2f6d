(* Tests for cet_eval: metrics, ground truth, table accumulators, and an
   end-to-end harness shape check on a micro corpus. *)

module Metrics = Cet_eval.Metrics
module GT = Cet_eval.Ground_truth
module Tables = Cet_eval.Tables
module Harness = Cet_eval.Harness

let check = Alcotest.check
let flt = Alcotest.float 1e-6

let test_metrics_basics () =
  let c = Metrics.compare_sets ~truth:[ 1; 2; 3; 4 ] ~found:[ 2; 3; 5 ] in
  check Alcotest.int "tp" 2 c.Metrics.tp;
  check Alcotest.int "fp" 1 c.Metrics.fp;
  check Alcotest.int "fn" 2 c.Metrics.fn;
  check flt "precision" (200.0 /. 3.0) (Metrics.precision c);
  check flt "recall" 50.0 (Metrics.recall c)

let test_metrics_edge_cases () =
  let c = Metrics.compare_sets ~truth:[] ~found:[] in
  check flt "precision empty" 100.0 (Metrics.precision c);
  check flt "recall empty" 100.0 (Metrics.recall c);
  let c = Metrics.compare_sets ~truth:[ 1 ] ~found:[] in
  check flt "recall zero" 0.0 (Metrics.recall c);
  check flt "precision no-report" 100.0 (Metrics.precision c)

let test_metrics_dedup () =
  let c = Metrics.compare_sets ~truth:[ 1; 1; 2 ] ~found:[ 1; 1; 1 ] in
  check Alcotest.int "tp dedup" 1 c.Metrics.tp;
  check Alcotest.int "fn dedup" 1 c.Metrics.fn;
  check Alcotest.int "fp dedup" 0 c.Metrics.fp

let test_metrics_add () =
  let a = { Metrics.tp = 1; fp = 2; fn = 3 } in
  let b = { Metrics.tp = 10; fp = 20; fn = 30 } in
  let s = Metrics.add a b in
  check Alcotest.int "tp" 11 s.Metrics.tp;
  check Alcotest.int "fp" 22 s.Metrics.fp;
  check Alcotest.int "fn" 33 s.Metrics.fn

let test_false_entries () =
  let fps, fns = Metrics.false_entries ~truth:[ 1; 2; 3 ] ~found:[ 2; 9 ] in
  check Alcotest.(list int) "fps" [ 9 ] fps;
  check Alcotest.(list int) "fns" [ 1; 3 ] fns

(* The set-based [compare_sets] that the merge walk replaced, kept as its
   oracle. *)
module IntSet = Set.Make (Int)

let compare_sets_oracle ~truth ~found =
  let t = IntSet.of_list truth and f = IntSet.of_list found in
  {
    Metrics.tp = IntSet.cardinal (IntSet.inter t f);
    fp = IntSet.cardinal (IntSet.diff f t);
    fn = IntSet.cardinal (IntSet.diff t f);
  }

(* Unsorted lists with duplicates over a small range (so the two sides
   overlap), and their sorted, deduplicated forms: both the walk's
   fallback and its fast path meet the oracle. *)
let qcheck_compare_sets_oracle =
  QCheck.Test.make ~name:"compare_sets = set oracle" ~count:500
    QCheck.(pair (small_list (int_bound 40)) (small_list (int_bound 40)))
    (fun (truth, found) ->
      let sorted l = List.sort_uniq Int.compare l in
      Metrics.compare_sets ~truth ~found = compare_sets_oracle ~truth ~found
      && Metrics.compare_sets ~truth:(sorted truth) ~found:(sorted found)
         = compare_sets_oracle ~truth ~found
      && Metrics.compare_sets ~truth:(sorted truth) ~found
         = compare_sets_oracle ~truth ~found)

let test_f1 () =
  let c = { Metrics.tp = 1; fp = 1; fn = 1 } in
  check flt "f1" 50.0 (Metrics.f1 c)

let test_fragment_names () =
  check Alcotest.bool ".cold" true (GT.is_fragment_name "sort_files.cold");
  check Alcotest.bool ".part.0" true (GT.is_fragment_name "quotearg.part.0");
  check Alcotest.bool ".part.12" true (GT.is_fragment_name "x.part.12");
  check Alcotest.bool "plain" false (GT.is_fragment_name "main");
  check Alcotest.bool "dotted but not fragment" false (GT.is_fragment_name "a.b");
  check Alcotest.bool "thunk" false (GT.is_fragment_name "__x86.get_pc_thunk.bx")

let test_table1_shares () =
  let t = Tables.Table1.create () in
  for _ = 1 to 98 do
    Tables.Table1.record t ~compiler:"gcc" ~suite:"spec" Core.Study.At_function_entry
  done;
  Tables.Table1.record t ~compiler:"gcc" ~suite:"spec" Core.Study.At_landing_pad;
  Tables.Table1.record t ~compiler:"gcc" ~suite:"spec" Core.Study.After_indirect_return_call;
  check flt "entry" 98.0
    (Tables.Table1.share t ~compiler:"gcc" ~suite:"spec" Core.Study.At_function_entry);
  check flt "lp" 1.0
    (Tables.Table1.share t ~compiler:"gcc" ~suite:"spec" Core.Study.At_landing_pad)

let test_fig3_shares () =
  let t = Tables.Fig3.create () in
  let p e j c =
    { Core.Study.endbr_at_head = e; dir_jmp_target = j; dir_call_target = c }
  in
  Tables.Fig3.record t (p true false true);
  Tables.Fig3.record t (p true false true);
  Tables.Fig3.record t (p false false false);
  Tables.Fig3.record t (p false true false);
  check Alcotest.int "total" 4 (Tables.Fig3.total t);
  check flt "endbr+call" 50.0 (Tables.Fig3.share t "endbr+call");
  check flt "none" 25.0 (Tables.Fig3.share t "none");
  check flt "jmp" 25.0 (Tables.Fig3.share t "jmp")

let test_table2_totals () =
  let t = Tables.Table2.create () in
  Tables.Table2.record t ~compiler:"gcc" ~suite:"spec" ~config:1
    { Metrics.tp = 8; fp = 2; fn = 0 };
  Tables.Table2.record t ~compiler:"clang" ~suite:"spec" ~config:1
    { Metrics.tp = 2; fp = 8; fn = 0 };
  let tot = Tables.Table2.totals t ~config:1 in
  check Alcotest.int "tp" 10 tot.Metrics.tp;
  check Alcotest.int "fp" 10 tot.Metrics.fp;
  check flt "precision" 50.0 (Metrics.precision tot)

let test_table3_time () =
  let t = Tables.Table3.create () in
  Tables.Table3.record_time t ~arch:"x64" ~suite:"spec" ~tool:"fetch" 0.4;
  Tables.Table3.record_time t ~arch:"x64" ~suite:"spec" ~tool:"fetch" 0.6;
  check flt "mean" 0.5 (Tables.Table3.mean_time t ~tool:"fetch")

let micro_profile =
  {
    Cet_corpus.Profile.coreutils with
    Cet_corpus.Profile.suite = "coreutils";
    programs = 1;
    funcs_lo = 50;
    funcs_hi = 70;
  }

let micro_spec =
  {
    Cet_corpus.Profile.spec with
    Cet_corpus.Profile.programs = 1;
    funcs_lo = 60;
    funcs_hi = 80;
    lang_cpp_fraction = 1.0;
  }

let test_harness_shapes () =
  let results =
    Harness.run
      ~profiles:[ micro_profile; micro_spec ]
      { Harness.default_options with Harness.seed = 99; scale = 1.0; timing = true }
  in
  check Alcotest.int "binaries" 96 results.Harness.binaries;
  check Alcotest.bool "functions counted" true (results.Harness.functions > 1000);
  (* Table II shape: config 3 trades precision for recall. *)
  let prec cfg = Metrics.precision (Tables.Table2.totals results.Harness.table2 ~config:cfg) in
  let rec_ cfg = Metrics.recall (Tables.Table2.totals results.Harness.table2 ~config:cfg) in
  check Alcotest.bool "c3 precision collapses" true (prec 3 < 60.0);
  check Alcotest.bool "c2 precision high" true (prec 2 > 95.0);
  check Alcotest.bool "c2 prec >= c1" true (prec 2 >= prec 1);
  check Alcotest.bool "c3 recall >= c2" true (rec_ 3 >= rec_ 2);
  check Alcotest.bool "c4 recall >= c2" true (rec_ 4 >= rec_ 2);
  (* Table III shape: FunSeeker dominates. *)
  let t3 tool = Tables.Table3.totals results.Harness.table3 ~tool in
  check Alcotest.bool "fs recall > ida" true
    (Metrics.recall (t3 "funseeker") > Metrics.recall (t3 "ida"));
  check Alcotest.bool "fs recall > fetch" true
    (Metrics.recall (t3 "funseeker") > Metrics.recall (t3 "fetch"));
  check Alcotest.bool "fs precision >= 99" true (Metrics.precision (t3 "funseeker") > 99.0);
  (* SPEC C++ landing pads appear in Table I. *)
  check Alcotest.bool "spec exception share" true
    (Tables.Table1.share results.Harness.table1 ~compiler:"gcc" ~suite:"spec"
       Core.Study.At_landing_pad
    > 5.0);
  (* Rendering produces the expected headers. *)
  let all = Harness.render_all results in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check Alcotest.bool needle true (contains all needle))
    [ "TABLE I"; "FIGURE 3"; "TABLE II"; "TABLE III" ]

(* ------------------------------------------------------------------ *)
(* Mergeable accumulators and the parallel harness                     *)
(* ------------------------------------------------------------------ *)

module Dataset = Cet_corpus.Dataset

let test_table1_merge () =
  let record t n loc =
    for _ = 1 to n do
      Tables.Table1.record t ~compiler:"gcc" ~suite:"spec" loc
    done
  in
  let whole = Tables.Table1.create () in
  record whole 98 Core.Study.At_function_entry;
  record whole 2 Core.Study.At_landing_pad;
  let part1 = Tables.Table1.create () and part2 = Tables.Table1.create () in
  record part1 40 Core.Study.At_function_entry;
  record part2 58 Core.Study.At_function_entry;
  record part1 1 Core.Study.At_landing_pad;
  record part2 1 Core.Study.At_landing_pad;
  let merged = Tables.Table1.create () in
  Tables.Table1.merge merged part1;
  Tables.Table1.merge merged part2;
  check Alcotest.string "render" (Tables.Table1.render whole) (Tables.Table1.render merged)

let test_fig3_merge () =
  let p e j c =
    { Core.Study.endbr_at_head = e; dir_jmp_target = j; dir_call_target = c }
  in
  let whole = Tables.Fig3.create () in
  let part1 = Tables.Fig3.create () and part2 = Tables.Fig3.create () in
  List.iteri
    (fun i props ->
      Tables.Fig3.record whole props;
      Tables.Fig3.record (if i mod 2 = 0 then part1 else part2) props)
    [ p true false true; p true false true; p false false false; p false true false ];
  let merged = Tables.Fig3.create () in
  Tables.Fig3.merge merged part1;
  Tables.Fig3.merge merged part2;
  check Alcotest.int "total" (Tables.Fig3.total whole) (Tables.Fig3.total merged);
  check Alcotest.string "render" (Tables.Fig3.render whole) (Tables.Fig3.render merged)

let test_table2_merge () =
  let whole = Tables.Table2.create () in
  let part1 = Tables.Table2.create () and part2 = Tables.Table2.create () in
  let feed t ~compiler c = Tables.Table2.record t ~compiler ~suite:"spec" ~config:1 c in
  let a = { Metrics.tp = 8; fp = 2; fn = 0 } and b = { Metrics.tp = 2; fp = 8; fn = 1 } in
  feed whole ~compiler:"gcc" a;
  feed whole ~compiler:"clang" b;
  feed part1 ~compiler:"gcc" a;
  feed part2 ~compiler:"clang" b;
  let merged = Tables.Table2.create () in
  Tables.Table2.merge merged part1;
  Tables.Table2.merge merged part2;
  check Alcotest.bool "totals" true
    (Tables.Table2.totals whole ~config:1 = Tables.Table2.totals merged ~config:1);
  check Alcotest.string "render" (Tables.Table2.render whole) (Tables.Table2.render merged)

let test_table3_merge () =
  let whole = Tables.Table3.create () in
  let part1 = Tables.Table3.create () and part2 = Tables.Table3.create () in
  let feed t c dt =
    Tables.Table3.record t ~arch:"x64" ~suite:"spec" ~tool:"fetch" c;
    Tables.Table3.record_time t ~arch:"x64" ~suite:"spec" ~tool:"fetch" dt
  in
  let a = { Metrics.tp = 5; fp = 1; fn = 2 } and b = { Metrics.tp = 7; fp = 0; fn = 1 } in
  feed whole a 0.4;
  feed whole b 0.6;
  feed part1 a 0.4;
  feed part2 b 0.6;
  let merged = Tables.Table3.create () in
  Tables.Table3.merge merged part1;
  Tables.Table3.merge merged part2;
  check Alcotest.bool "counts" true
    (Tables.Table3.totals whole ~tool:"fetch" = Tables.Table3.totals merged ~tool:"fetch");
  check flt "mean time" 0.5 (Tables.Table3.mean_time merged ~tool:"fetch");
  check Alcotest.string "render" (Tables.Table3.render whole) (Tables.Table3.render merged)

let test_parallel_equivalence () =
  (* The tentpole guarantee: a multi-domain run merges its per-worker
     partial tables in plan order and renders byte-identically to the
     sequential run.  [timing = false] pins the only nondeterministic
     columns (wall clock) to zero. *)
  let opts = { Harness.default_options with Harness.seed = 99; scale = 1.0; timing = false } in
  let profiles = [ micro_profile; micro_spec ] in
  let seq = Harness.run ~profiles ~jobs:1 opts in
  let par = Harness.run ~profiles ~jobs:4 opts in
  check Alcotest.int "binaries" seq.Harness.binaries par.Harness.binaries;
  check Alcotest.int "functions" seq.Harness.functions par.Harness.functions;
  check Alcotest.string "byte-identical render" (Harness.render_all seq)
    (Harness.render_all par)

(* ------------------------------------------------------------------ *)
(* The speed experiment (§V-D whole-tool timings)                     *)
(* ------------------------------------------------------------------ *)

let counts =
  Alcotest.testable
    (fun ppf (c : Metrics.counts) -> Format.fprintf ppf "tp=%d fp=%d fn=%d" c.tp c.fp c.fn)
    ( = )

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let speed_tools =
  [ "funseeker-1"; "funseeker-2"; "funseeker-3"; "funseeker"; "funseeker-anchored"; "fetch" ]

let micro_untimed = { Harness.default_options with Harness.seed = 99; scale = 1.0; timing = false }

(* The untimed speed experiment over both micro profiles, shared by the
   tests below. *)
let micro_speed =
  lazy (Harness.speed ~profiles:[ micro_profile; micro_spec ] ~jobs:1 micro_untimed)

let test_speed_agrees_with_tables () =
  (* The speed experiment's whole-tool rows score exactly what the tables
     score: rows 1-4 are Table II's configurations, and the "funseeker"
     and "fetch" rows are Table III's tools.  Untimed, its render is the
     same at every jobs count, with every ms at zero and no ratio line. *)
  let profiles = [ micro_profile; micro_spec ] in
  let results = Harness.run ~profiles ~jobs:1 micro_untimed in
  let seq = Lazy.force micro_speed in
  let par = Harness.speed ~profiles ~jobs:4 micro_untimed in
  List.iteri
    (fun i tool ->
      check counts tool
        (Tables.Table2.totals results.Harness.table2 ~config:(i + 1))
        (Tables.Table3.totals seq ~tool))
    [ "funseeker-1"; "funseeker-2"; "funseeker-3"; "funseeker" ];
  List.iter
    (fun tool ->
      check counts (tool ^ " = Table III")
        (Tables.Table3.totals results.Harness.table3 ~tool)
        (Tables.Table3.totals seq ~tool))
    [ "funseeker"; "fetch" ];
  let out = Harness.render_speed seq in
  check Alcotest.string "byte-identical across jobs" out (Harness.render_speed par);
  let rows =
    List.filter
      (fun l -> String.length l > 2 && String.sub l 0 2 = "  " && String.trim l <> "")
      (String.split_on_char '\n' out)
  in
  (* the column header, then the six rows *)
  check Alcotest.int "rows" 7 (List.length rows);
  List.iter
    (fun l ->
      let n = String.length l in
      check Alcotest.string ("ms of " ^ String.trim l) "0.000" (String.sub l (n - 5) 5))
    (List.tl rows)

let test_speed_timed () =
  (* Timed, every row has a mean time, and the render ends with one ratio
     line: FETCH-like's mean ms over FunSeeker (4)'s, to one decimal. *)
  let t =
    Harness.speed ~profiles:[ micro_profile ] ~jobs:1 { micro_untimed with Harness.timing = true }
  in
  List.iter
    (fun tool ->
      check Alcotest.bool (tool ^ " timed") true (Tables.Table3.mean_time t ~tool > 0.0))
    speed_tools;
  let out = Harness.render_speed t in
  let ratio = List.filter (fun l -> contains l "ratio") (String.split_on_char '\n' out) in
  check Alcotest.int "one ratio line" 1 (List.length ratio);
  let ms tool = Tables.Table3.mean_time t ~tool *. 1000.0 in
  let value = Printf.sprintf "= %.1fx" (ms "fetch" /. ms "funseeker") in
  check Alcotest.bool ("ratio " ^ value) true (contains (List.hd ratio) value);
  check Alcotest.bool "untimed: no ratio line" false
    (contains (Harness.render_speed (Lazy.force micro_speed)) "ratio")

let test_fetch_matches_multipass_oracle () =
  (* FETCH-like reports the FDE starts in .text plus the tail targets of
     one stack-height walk per extent between consecutive starts.  The
     retired 22-pass walk (kept in [Oracle_baselines] as the reference
     for the old model) reset its height on every pass and recorded only
     on the last, so on every binary of the micro corpus the two agree. *)
  let plan = Dataset.plan ~profiles:[ micro_profile; micro_spec ] ~seed:99 ~scale:1.0 () in
  let tails = ref 0 in
  for k = 0 to Dataset.length plan - 1 do
    List.iter
      (fun (bin : Dataset.binary) ->
        let reader = Cet_elf.Reader.read bin.Dataset.stripped in
        let st = Cet_disasm.Substrate.create reader in
        let text = Option.get (Cet_disasm.Substrate.text st) in
        let text_end = text.vaddr + text.size in
        let starts =
          Array.of_list
            (List.filter
               (fun a -> a >= text.vaddr && a < text_end)
               (Cet_disasm.Substrate.fde_starts st))
        in
        let extents =
          List.init (Array.length starts) (fun i ->
              (starts.(i), if i + 1 < Array.length starts then starts.(i + 1) else text_end))
        in
        let targets =
          Oracle_baselines.stack_height_tail_targets
            (Oracle_sweep.sweep_text_reference reader)
            ~extents ~passes:22
        in
        tails := !tails + List.length targets;
        check
          Alcotest.(list int)
          (Printf.sprintf "%s/%s %s" bin.Dataset.suite bin.Dataset.program
             (Cet_compiler.Options.to_string bin.Dataset.config))
          (List.sort_uniq Int.compare (Array.to_list starts @ targets))
          (Cet_baselines.Fetch.analyze_st st))
      (Dataset.nth plan k)
  done;
  check Alcotest.bool "some binary has tail targets" true (!tails > 0)

let test_speed_ignores_table_options () =
  (* [speed] reads only seed, scale and timing.  The options only [run]
     reads change nothing: a fault injected into every binary, fail-fast,
     a deadline no binary can meet, triage and profiling. *)
  let loud =
    {
      micro_untimed with
      Harness.max_seconds = Some 1e-9;
      keep_going = false;
      fault = Some (fun _ -> true);
      triage = true;
      profile = true;
    }
  in
  check Alcotest.string "same render"
    (Harness.render_speed (Lazy.force micro_speed))
    (Harness.render_speed (Harness.speed ~profiles:[ micro_profile; micro_spec ] ~jobs:2 loud))

let test_side_experiments_jobs () =
  (* The side experiments fold their items in index order, so what they
     print does not depend on the number of workers. *)
  let opts = { Harness.default_options with Harness.seed = 5; scale = 0.001 } in
  List.iter
    (fun (name, render) -> check Alcotest.string name (render 1) (render 3))
    [
      ("manual-endbr", fun jobs -> Harness.render_manual_endbr (Harness.manual_endbr_ablation ~jobs opts));
      ("extras", fun jobs -> Harness.render_related_work (Harness.related_work ~jobs opts));
      ("inline-data", fun jobs -> Harness.render_inline_data (Harness.inline_data ~jobs opts));
      ("arm", fun jobs -> Harness.render_arm (Harness.arm_bti ~jobs opts));
    ]

(* With spans on, a harness run records one sweep per binary and no
   scan: the sweep runs first and its one walk also fills the indexes and
   facts, so a reorder that brought the second walk back shows here. *)
let test_harness_walks_once () =
  let module Registry = Cet_telemetry.Registry in
  Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ())
    (fun () ->
      Registry.enable ();
      let r =
        Harness.run ~profiles:[ micro_profile ]
          ~configs:[ Cet_compiler.Options.default; { Cet_compiler.Options.default with arch = X86 } ]
          ~jobs:1 micro_untimed
      in
      let spans = (Registry.merged ()).Registry.spans in
      let calls name =
        match Hashtbl.find_opt spans name with
        | Some m -> Cet_telemetry.Hist.count m.Registry.hist
        | None -> 0
      in
      check Alcotest.int "binaries" 2 r.Harness.binaries;
      check Alcotest.int "harness.binary spans" 2 (calls "harness.binary");
      check Alcotest.int "one disasm.sweep per binary" 2 (calls "disasm.sweep");
      check Alcotest.int "no disasm.scan" 0 (calls "disasm.scan"))

let test_ablation_truth_dedup () =
  (* Regression: the SSVI ablation must measure the deduplicated entry
     set.  Pre-fix it took [List.map snd bin.truth] verbatim, so a binary
     whose truth carries aliased (duplicate) addresses inflated the
     function tally. *)
  let plan =
    Dataset.plan ~profiles:[ micro_profile ]
      ~configs:[ Cet_compiler.Options.default ]
      ~seed:3 ~scale:1.0 ()
  in
  let bin = List.hd (Dataset.nth plan 0) in
  let dup = { bin with Dataset.truth = bin.Dataset.truth @ bin.Dataset.truth } in
  let counts, functions = Harness.manual_endbr_binary dup in
  check Alcotest.int "functions = tp + fn" (counts.Metrics.tp + counts.Metrics.fn)
    functions;
  let counts0, functions0 = Harness.manual_endbr_binary bin in
  check Alcotest.bool "duplicates change nothing" true
    (counts0 = counts && functions0 = functions)

let test_render_separators_normalized () =
  (* Regression for the literal embedded newlines that used to live inside
     the render functions' [String.concat] separators: the source must
     only ever spell the separator as the "\n" escape, so the renders stay
     uniform and greppable. *)
  let path =
    List.find_opt Sys.file_exists [ "../lib/eval/harness.ml"; "lib/eval/harness.ml" ]
  in
  match path with
  | None -> Alcotest.fail "harness.ml not reachable from the test directory"
  | Some path ->
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let bad = "String.concat \"\n" in
    let n = String.length bad and h = String.length src in
    let rec find i = i + n <= h && (String.sub src i n = bad || find (i + 1)) in
    check Alcotest.bool "no literal newline inside a concat separator" false (find 0)

(* ------------------------------------------------------------------ *)
(* The evaluate command line                                          *)
(* ------------------------------------------------------------------ *)

let built_exe name =
  let here = Filename.dirname Sys.executable_name in
  List.find_opt Sys.file_exists
    [ Filename.concat here ("../bin/" ^ name ^ ".exe"); "../bin/" ^ name ^ ".exe" ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run the built [bin/name.exe args] with its output captured in files of
   [dir], which are removed again: (exit code, stdout, stderr). *)
let run_tool ~dir name args =
  let exe =
    match built_exe name with
    | Some exe -> exe
    | None -> Alcotest.failf "%s.exe not reachable from the test directory" name
  in
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let o = fd out and e = fd err in
  let pid = Unix.create_process exe (Array.of_list (name :: args)) Unix.stdin o e in
  Unix.close o;
  Unix.close e;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  let result = (code, read_file out, read_file err) in
  Sys.remove out;
  Sys.remove err;
  result

let run_evaluate ~dir args = run_tool ~dir "evaluate" args

let with_temp_dir f =
  let dir = Filename.temp_dir "evaluate-cli" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let side_experiments = [ "manual-endbr"; "extras"; "inline-data"; "arm"; "speed" ]

let test_cli_side_experiment_flags () =
  (* Every flag that only the table run reads is a usage error on every
     side experiment: exit 2, a message naming the flag, nothing on
     stdout, and no report file created. *)
  with_temp_dir (fun dir ->
      let file name = Filename.concat dir name in
      let flags =
        [
          [ "--progress" ];
          [ "--max-seconds"; "5" ];
          [ "--fail-fast" ];
          [ "--inject-fault"; "3" ];
          [ "--triage" ];
          [ "--triage-out"; file "t.jsonl" ];
          [ "--top-slow"; "3" ];
          [ "--manifest-out"; file "m.json" ];
        ]
      in
      List.iter
        (fun what ->
          List.iter
            (fun flag ->
              let name = what ^ " " ^ String.concat " " flag in
              let code, out, err = run_evaluate ~dir ((what :: flag) @ [ "--scale"; "0.001" ]) in
              check Alcotest.int (name ^ ": exit") 2 code;
              check Alcotest.string (name ^ ": stdout") "" out;
              check Alcotest.bool (name ^ ": names the flag") true
                (contains err (List.hd flag ^ " does not apply to the " ^ what));
              check Alcotest.(array string) (name ^ ": no file") [||] (Sys.readdir dir))
            flags)
        side_experiments)

let test_cli_unknown_experiment () =
  (* An unknown experiment is rejected, with the list of known ones,
     before any report or telemetry file is opened. *)
  with_temp_dir (fun dir ->
      let file name = Filename.concat dir name in
      let code, out, err =
        run_evaluate ~dir
          [
            "table4"; "--manifest-out"; file "r.jsonl"; "--metrics-out"; file "m.prom";
            "--trace-out"; file "t.jsonl";
          ]
      in
      check Alcotest.int "exit" 2 code;
      check Alcotest.string "stdout" "" out;
      check Alcotest.bool "names it" true (contains err "unknown experiment \"table4\"");
      List.iter
        (fun what -> check Alcotest.bool ("lists " ^ what) true (contains err what))
        ("table3" :: side_experiments);
      check Alcotest.(array string) "no file" [||] (Sys.readdir dir))

let test_cli_side_experiment_telemetry () =
  (* The global telemetry flags do apply to the side experiments: the
     experiment prints its table, then the --stats report, and writes the
     metrics and trace files. *)
  with_temp_dir (fun dir ->
      let file name = Filename.concat dir name in
      let code, out, _ =
        run_evaluate ~dir
          [
            "inline-data"; "--scale"; "0.001"; "--jobs"; "1"; "--stats"; "--metrics-out";
            file "m.prom"; "--trace-out"; file "t.jsonl";
          ]
      in
      check Alcotest.int "exit" 0 code;
      check Alcotest.bool "experiment output" true (contains out "INLINE DATA IN .TEXT");
      check Alcotest.bool "stats report" true (contains out "TELEMETRY: phase breakdown");
      List.iter
        (fun name ->
          check Alcotest.bool (name ^ " written") true
            (String.length (read_file (file name)) > 0))
        [ "m.prom"; "t.jsonl" ])

(* A usage error: the exit code, a message naming the option, and no
   file or directory left behind.  Returns the message. *)
let usage_error ~dir name args ~code ~option =
  let what = name ^ " " ^ String.concat " " args in
  let got, out, err = run_tool ~dir name args in
  check Alcotest.int (what ^ ": exit") code got;
  check Alcotest.string (what ^ ": stdout") "" out;
  check Alcotest.bool (what ^ ": names " ^ option) true (contains err option);
  check Alcotest.(array string) (what ^ ": no file") [||] (Sys.readdir dir);
  err

let test_cli_unwritable_report () =
  (* Every report file is opened before the run: a path that cannot be
     written is a usage error (exit 2) that names the flag, before any
     binary is evaluated. *)
  with_temp_dir (fun dir ->
      let missing = Filename.concat (Filename.concat dir "missing") "r.jsonl" in
      List.iter
        (fun flag ->
          ignore
            (usage_error ~dir "evaluate"
               [ "table2"; "--scale"; "0.001"; flag; missing ]
               ~code:2
               ~option:("cannot open " ^ flag ^ " file")))
        [ "--triage-out"; "--metrics-out"; "--manifest-out"; "--trace-out" ];
      (* No report file changes until all are open: when the last one
         fails, a previous run's file keeps its bytes and the new ones are
         not left behind. *)
      let kept = Filename.concat dir "t.jsonl" in
      Out_channel.with_open_bin kept (fun oc -> output_string oc "a previous run's rows\n");
      let code, out, err =
        run_evaluate ~dir
          [
            "table2"; "--scale"; "0.001"; "--triage-out"; kept; "--metrics-out";
            Filename.concat dir "m.prom"; "--trace-out"; Filename.concat dir "tr.jsonl";
            "--manifest-out"; missing;
          ]
      in
      check Alcotest.int "exit" 2 code;
      check Alcotest.string "stdout" "" out;
      check Alcotest.bool "names the flag" true (contains err "cannot open --manifest-out file");
      check Alcotest.string "a pre-existing file keeps its bytes" "a previous run's rows\n"
        (read_file kept);
      check Alcotest.(array string) "no new file appears" [| "t.jsonl" |] (Sys.readdir dir))

let test_cli_evaluate_numbers () =
  (* A count, budget or modulus out of range is a usage error (exit 2)
     that names the flag and the value, before any binary is built. *)
  with_temp_dir (fun dir ->
      List.iter
        (fun (flag, value, message) ->
          ignore
            (usage_error ~dir "evaluate"
               ("table2" :: (flag ^ "=" ^ value)
               :: (if flag = "--scale" then [] else [ "--scale=0.001" ]))
               ~code:2
               ~option:(Printf.sprintf "%s %s (got %s)" flag message value)))
        [
          ("--jobs", "0", "must be a positive worker count");
          ("--scale", "0", "must be positive");
          ("--scale", "-1", "must be positive");
          ("--scale", "nan", "must be finite");
          ("--scale", "inf", "must be finite");
          ("--max-seconds", "0", "must be positive");
          ("--max-seconds", "-1", "must be positive");
          ("--max-seconds", "nan", "must be finite");
          ("--max-seconds", "inf", "must be finite");
          ("--inject-fault", "0", "must be a positive modulus");
          ("--top-slow", "-1", "must be non-negative");
        ])

let test_cli_cetfuzz_numbers () =
  (* cetfuzz checks its numbers the same way, before the soak. *)
  with_temp_dir (fun dir ->
      List.iter
        (fun (flag, value, message) ->
          ignore
            (usage_error ~dir "cetfuzz" [ flag ^ "=" ^ value ] ~code:2
               ~option:(Printf.sprintf "%s %s (got %s)" flag message value)))
        [
          ("--count", "0", "must be positive");
          ("--max-seconds", "0", "must be positive");
          ("--max-seconds", "-2", "must be positive");
          ("--max-seconds", "nan", "must be finite");
          ("--max-seconds", "inf", "must be finite");
          ("--jobs", "0", "must be a positive worker count");
        ])

let test_cli_cetstat_numbers () =
  (* cetstat checks its threshold and cut before it reads a manifest: a
     NaN would compare false against every row and report nothing, a
     negative threshold count every row. *)
  with_temp_dir (fun dir ->
      let m = Filename.concat dir "absent.jsonl" in
      List.iter
        (fun (args, option) -> ignore (usage_error ~dir "cetstat" args ~code:2 ~option))
        [
          ([ "diff"; m; m; "--threshold=nan" ], "--threshold must be finite (got nan)");
          ([ "diff"; m; m; "--threshold=inf" ], "--threshold must be finite (got inf)");
          ([ "diff"; m; m; "--threshold=-10" ], "--threshold must be non-negative (got -10)");
          ([ "anomalies"; m; "-z"; "nan" ], "-z must be finite (got nan)");
          ([ "anomalies"; m; "-z"; "inf" ], "-z must be finite (got inf)");
          ([ "anomalies"; m; "-z"; "0" ], "-z must be positive (got 0)");
        ])

let test_cli_retired_flags () =
  (* The scheduler-chaos, run-deadline, SLO and journal flags are gone,
     and so are the profile and quarantine files and the Chrome trace
     format, which the manifest and `cetstat chrome` replace: each is an
     unknown option, a Cmdliner usage error (exit 124). *)
  with_temp_dir (fun dir ->
      List.iter
        (fun (name, args, option) ->
          ignore (usage_error ~dir name args ~code:124 ~option:("unknown option '" ^ option ^ "'")))
        [
          ("evaluate", [ "table2"; "--scale"; "0.001"; "--chaos"; "7" ], "--chaos");
          ("evaluate", [ "table2"; "--scale"; "0.001"; "--run-seconds"; "60" ], "--run-seconds");
          ("evaluate", [ "table2"; "--scale"; "0.001"; "--slo"; "funseeker:p99<5ms" ], "--slo");
          ("cetfuzz", [ "--count"; "1"; "--chaos"; "7" ], "--chaos");
          ("cetfuzz", [ "--count"; "1"; "--journal" ], "--journal");
          ("evaluate", [ "table2"; "--scale"; "0.001"; "--profile-out"; "p.jsonl" ], "--profile-out");
          ( "evaluate",
            [ "table2"; "--scale"; "0.001"; "--quarantine-out"; "q.jsonl" ],
            "--quarantine-out" );
          ("evaluate", [ "table2"; "--scale"; "0.001"; "--trace-format"; "chrome" ], "--trace-format");
          ("cetstat", [ "report"; "m.jsonl"; "--profile"; "p.jsonl" ], "--profile");
          ("cetstat", [ "anomalies"; "m.jsonl"; "--profile"; "p.jsonl" ], "--profile");
          ("cetstat", [ "diff"; "a.jsonl"; "b.jsonl"; "--old-profile"; "p.jsonl" ], "--old-profile");
          ("cetstat", [ "diff"; "a.jsonl"; "b.jsonl"; "--new-profile"; "p.jsonl" ], "--new-profile");
        ])

let test_cli_synthcc_names () =
  (* An unknown suite, compiler, architecture or optimisation level is a
     Cmdliner usage error (exit 124) that lists the accepted values, on
     every target: arm64 does not skip the check. *)
  with_temp_dir (fun dir ->
      let out = [ "-o"; Filename.concat dir "a.elf" ] in
      List.iter
        (fun (args, option, accepted) ->
          let err = usage_error ~dir "synthcc" (args @ out) ~code:124 ~option in
          check Alcotest.bool (option ^ " lists " ^ accepted) true (contains err accepted))
        [
          ([ "--suite"; "foo" ], "--suite", "binutils");
          ([ "--compiler"; "icc" ], "--compiler", "clang");
          ([ "--arch"; "sparc" ], "--arch", "arm64");
          ([ "--opt"; "O9" ], "--opt", "Ofast");
          ([ "--arch"; "arm64"; "--compiler"; "icc"; "--opt"; "O9" ], "--compiler", "gcc");
          ([ "--arch"; "arm64"; "--opt"; "O9" ], "--opt", "O0");
        ])

let test_cli_mkcorpus_arguments () =
  (* An unknown suite is a usage error (exit 124); a scale that is not
     positive is rejected with exit 2, as evaluate rejects it, before the
     output directory is created. *)
  with_temp_dir (fun dir ->
      let out = [ "--out"; Filename.concat dir "c" ] in
      ignore (usage_error ~dir "mkcorpus" ([ "--suite"; "foo" ] @ out) ~code:124 ~option:"--suite");
      List.iter
        (fun scale ->
          ignore
            (usage_error ~dir "mkcorpus" (("--scale=" ^ scale) :: out) ~code:2
               ~option:("--scale must be positive (got " ^ scale ^ ")")))
        [ "-1"; "0" ];
      (* An infinite or NaN scale is no corpus size either: inf built the
         minimum corpus, as a tiny scale does. *)
      List.iter
        (fun scale ->
          ignore
            (usage_error ~dir "mkcorpus" (("--scale=" ^ scale) :: out) ~code:2
               ~option:("--scale must be finite (got " ^ scale ^ ")")))
        [ "inf"; "nan" ])

(* Run [name args] with [input] on its stdin through a pipe, which cannot
   be sized or seeked: (exit code, stdout). *)
let run_piped ~dir name args input =
  let exe = Option.get (built_exe name) in
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let o = fd out and e = fd err in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (name :: args)) r o e in
  Unix.close r;
  Unix.close o;
  Unix.close e;
  (* A tool that stops reading early must fail the test, not kill the
     runner with SIGPIPE. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let oc = Unix.out_channel_of_descr w in
  (try
     output_string oc input;
     close_out oc
   with Sys_error _ -> close_out_noerr oc);
  Sys.set_signal Sys.sigpipe sigpipe;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  let stdout = read_file out in
  Sys.remove out;
  Sys.remove err;
  (code, stdout)

let test_cli_pipe_and_directory () =
  (* The ELF tools and cetstat read a file to its end rather than sizing
     it first: a pipe (/dev/stdin) is analysed exactly as the file it
     carries.  A directory ends in a diagnostic and exit 2, not an
     uncaught Sys_error. *)
  with_temp_dir (fun dir ->
      let elf = Filename.concat dir "a.elf" in
      let code, _, _ = run_tool ~dir "synthcc" [ "--strip"; "-o"; elf ] in
      check Alcotest.int "synthcc" 0 code;
      let bytes = read_file elf in
      List.iter
        (fun name ->
          let code, from_file, _ = run_tool ~dir name [ elf ] in
          let piped_code, piped = run_piped ~dir name [ "/dev/stdin" ] bytes in
          check Alcotest.int (name ^ ": same exit through a pipe") code piped_code;
          (* cetaudit names its input in its report *)
          let named path s =
            let n = String.length path in
            let buf = Buffer.create (String.length s) in
            let i = ref 0 in
            while !i < String.length s do
              if !i + n <= String.length s && String.sub s !i n = path then begin
                Buffer.add_string buf "FILE";
                i := !i + n
              end
              else begin
                Buffer.add_char buf s.[!i];
                incr i
              end
            done;
            Buffer.contents buf
          in
          check Alcotest.string (name ^ ": same output through a pipe") (named elf from_file)
            (named "/dev/stdin" piped);
          let code, out, err = run_tool ~dir name [ dir ] in
          check Alcotest.int (name ^ ": a directory exits 2") 2 code;
          check Alcotest.string (name ^ ": nothing on stdout") "" out;
          check Alcotest.bool (name ^ ": a diagnostic") true (contains err "error [io/unreadable]");
          check Alcotest.bool (name ^ ": no uncaught exception") false (contains err "exception"))
        [ "funseeker"; "cetaudit"; "inspect" ];
      (* cetstat reads a run file the same way. *)
      let manifest = Filename.concat dir "m.jsonl" in
      let row =
        {
          Cet_obs.Manifest.p_suite = "s"; p_program = "p"; p_config = "c"; p_arch = "x64";
          p_digest = "d"; p_text_bytes = 1; p_insns = 1; p_resyncs = 0; p_truth = 1;
          p_status = "ok"; p_total_ms = 1.5; p_phases = [ ("study", 1.5) ]; p_error = None;
          p_backtrace = None;
        }
      in
      Out_channel.with_open_bin manifest (fun oc ->
          Cet_obs.Manifest.write oc
            {
              Cet_obs.Manifest.r_experiment = "table2"; r_seed = 1; r_scale = 0.001; r_jobs = 1;
              r_timing = true; r_binaries = 1; r_functions = 1; r_quarantined = 0;
              r_trace = None; rows = [ row ];
            });
      let code, from_file, _ = run_tool ~dir "cetstat" [ "report"; manifest ] in
      check Alcotest.int "cetstat report" 0 code;
      let piped_code, piped = run_piped ~dir "cetstat" [ "report"; "/dev/stdin" ] (read_file manifest) in
      check Alcotest.int "cetstat: same exit through a pipe" 0 piped_code;
      check Alcotest.string "cetstat: same report through a pipe" from_file piped;
      Sys.remove manifest;
      let code, out, err = run_tool ~dir "cetstat" [ "report"; dir ] in
      check Alcotest.int "cetstat: a directory exits 2" 2 code;
      check Alcotest.string "cetstat: nothing on stdout" "" out;
      check Alcotest.bool "cetstat: names the directory" true (contains err ("cetstat: " ^ dir ^ ": ")))

let suite =
  [
    ( "eval.metrics",
      [
        Alcotest.test_case "basics" `Quick test_metrics_basics;
        Alcotest.test_case "edge cases" `Quick test_metrics_edge_cases;
        Alcotest.test_case "dedup" `Quick test_metrics_dedup;
        Alcotest.test_case "add" `Quick test_metrics_add;
        Alcotest.test_case "false entries" `Quick test_false_entries;
        Alcotest.test_case "f1" `Quick test_f1;
        QCheck_alcotest.to_alcotest qcheck_compare_sets_oracle;
      ] );
    ( "eval.ground_truth",
      [ Alcotest.test_case "fragment names" `Quick test_fragment_names ] );
    ( "eval.tables",
      [
        Alcotest.test_case "table1 shares" `Quick test_table1_shares;
        Alcotest.test_case "fig3 shares" `Quick test_fig3_shares;
        Alcotest.test_case "table2 totals" `Quick test_table2_totals;
        Alcotest.test_case "table3 time" `Quick test_table3_time;
        Alcotest.test_case "table1 merge" `Quick test_table1_merge;
        Alcotest.test_case "fig3 merge" `Quick test_fig3_merge;
        Alcotest.test_case "table2 merge" `Quick test_table2_merge;
        Alcotest.test_case "table3 merge" `Quick test_table3_merge;
      ] );
    ( "eval.harness",
      [
        Alcotest.test_case "end-to-end shapes" `Slow test_harness_shapes;
        Alcotest.test_case "parallel/sequential equivalence" `Slow
          test_parallel_equivalence;
        Alcotest.test_case "ablation truth dedup" `Quick test_ablation_truth_dedup;
        Alcotest.test_case "render separators normalized" `Quick
          test_render_separators_normalized;
        Alcotest.test_case "speed agrees with the tables" `Slow
          test_speed_agrees_with_tables;
        Alcotest.test_case "speed: timed rows and the ratio line" `Slow test_speed_timed;
        Alcotest.test_case "FETCH-like = FDE starts + the 22-pass oracle's tail targets" `Slow
          test_fetch_matches_multipass_oracle;
        Alcotest.test_case "speed ignores the table-only options" `Slow
          test_speed_ignores_table_options;
        Alcotest.test_case "side experiments: same output at every jobs" `Slow
          test_side_experiments_jobs;
        Alcotest.test_case "one walk of .text per binary" `Quick test_harness_walks_once;
      ] );
    ( "eval.cli",
      [
        Alcotest.test_case "side experiments reject table-only flags" `Quick
          test_cli_side_experiment_flags;
        Alcotest.test_case "unknown experiment rejected before files open" `Quick
          test_cli_unknown_experiment;
        Alcotest.test_case "side experiments take the telemetry flags" `Quick
          test_cli_side_experiment_telemetry;
        Alcotest.test_case "an unwritable report file fails before the run" `Quick
          test_cli_unwritable_report;
        Alcotest.test_case "evaluate rejects out-of-range numbers" `Quick
          test_cli_evaluate_numbers;
        Alcotest.test_case "cetfuzz rejects out-of-range numbers" `Quick
          test_cli_cetfuzz_numbers;
        Alcotest.test_case "cetstat rejects out-of-range numbers" `Quick
          test_cli_cetstat_numbers;
        Alcotest.test_case "retired flags are unknown options" `Quick test_cli_retired_flags;
        Alcotest.test_case "synthcc rejects unknown names" `Quick test_cli_synthcc_names;
        Alcotest.test_case "mkcorpus rejects a bad suite or scale" `Quick
          test_cli_mkcorpus_arguments;
        Alcotest.test_case "a pipe reads as its file; a directory is a diagnostic" `Quick
          test_cli_pipe_and_directory;
      ] );
  ]
