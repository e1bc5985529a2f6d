(* Benchmark harness: one Bechamel test per paper table/figure, the §V-D
   speed comparison (FunSeeker vs FETCH), the DESIGN.md ablations, and
   substrate micro-benchmarks.

   Each table bench measures the per-binary unit of work that the evaluate
   driver aggregates over the whole corpus; the workload binaries are
   representative members of the three suites, compiled once up front. *)

open Bechamel
open Toolkit
module O = Cet_compiler.Options
module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear
module FS = Core.Funseeker

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_reader : Reader.t;
  w_truth : int list;
}

let build_workload ~name ~profile ~index ~opts =
  let ir = Cet_corpus.Generator.program ~seed:2022 ~profile ~index in
  let res = Cet_compiler.Link.link opts ir in
  let bytes = Cet_elf.Writer.write ~strip:true res.image in
  {
    w_name = name;
    w_reader = Reader.read bytes;
    w_truth = List.sort_uniq Int.compare (List.map snd res.truth);
  }

let coreutils_bin =
  build_workload ~name:"coreutils-gcc-x64-O2" ~profile:Cet_corpus.Profile.coreutils
    ~index:3 ~opts:O.default

let spec_bin =
  build_workload ~name:"spec-gcc-x64-O2"
    ~profile:{ Cet_corpus.Profile.spec with Cet_corpus.Profile.lang_cpp_fraction = 1.0 }
    ~index:1 ~opts:O.default

let clang_x86_bin =
  build_workload ~name:"coreutils-clang-x86-O2" ~profile:Cet_corpus.Profile.coreutils
    ~index:3
    ~opts:{ O.default with compiler = O.Clang; arch = Cet_x86.Arch.X86; pie = false }

let micro_corpus_profile =
  {
    Cet_corpus.Profile.coreutils with
    Cet_corpus.Profile.suite = "coreutils";
    programs = 1;
    funcs_lo = 60;
    funcs_hi = 80;
  }

(* ------------------------------------------------------------------ *)
(* Benchmarks                                                         *)
(* ------------------------------------------------------------------ *)

let stage = Staged.stage

(* Table I: classify every end-branch of a SPEC C++ binary. *)
let bench_table1 =
  Test.make ~name:"table1/classify-endbrs(spec)"
    (stage (fun () -> Core.Study.classify_endbrs spec_bin.w_reader ~truth:spec_bin.w_truth))

(* Figure 3: property classes of every ground-truth function. *)
let bench_fig3 =
  Test.make ~name:"fig3/function-props(spec)"
    (stage (fun () -> Core.Study.function_props spec_bin.w_reader ~truth:spec_bin.w_truth))

(* Table II: the four ablation configurations. *)
let bench_table2 =
  List.map
    (fun (i, config) ->
      Test.make
        ~name:(Printf.sprintf "table2/config%d(spec)" i)
        (stage (fun () -> FS.analyze ~config spec_bin.w_reader)))
    [ (1, FS.config1); (2, FS.config2); (3, FS.config3); (4, FS.config4) ]

(* Table III: the four tools on the same binary — the paper's speed
   comparison (§V-D) plus the correctness pipelines. *)
let bench_table3 =
  [
    Test.make ~name:"table3/funseeker(spec)"
      (stage (fun () -> FS.analyze spec_bin.w_reader));
    Test.make ~name:"table3/ida-like(spec)"
      (stage (fun () -> Cet_baselines.Ida_like.analyze spec_bin.w_reader));
    Test.make ~name:"table3/ghidra-like(spec)"
      (stage (fun () -> Cet_baselines.Ghidra_like.analyze spec_bin.w_reader));
    Test.make ~name:"table3/fetch-like(spec)"
      (stage (fun () -> Cet_baselines.Fetch.analyze spec_bin.w_reader));
    Test.make ~name:"table3/funseeker(coreutils)"
      (stage (fun () -> FS.analyze coreutils_bin.w_reader));
    Test.make ~name:"table3/fetch-like(coreutils)"
      (stage (fun () -> Cet_baselines.Fetch.analyze coreutils_bin.w_reader));
    Test.make ~name:"table3/fetch-like(clang-x86)"
      (stage (fun () -> Cet_baselines.Fetch.analyze clang_x86_bin.w_reader));
  ]

(* Ablations called out in DESIGN.md. *)
let bench_ablations =
  [
    (* FILTERENDBR on/off: the §V-B precision lever. *)
    Test.make ~name:"ablation/filter-endbr-off"
      (stage (fun () -> FS.analyze ~config:FS.config1 spec_bin.w_reader));
    Test.make ~name:"ablation/filter-endbr-on"
      (stage (fun () -> FS.analyze ~config:FS.config2 spec_bin.w_reader));
    (* SELECTTAILCALL vs raw jump harvesting. *)
    Test.make ~name:"ablation/jmp-targets-raw"
      (stage (fun () -> FS.analyze ~config:FS.config3 spec_bin.w_reader));
    Test.make ~name:"ablation/jmp-targets-tailcall"
      (stage (fun () -> FS.analyze ~config:FS.config4 spec_bin.w_reader));
    (* FETCH's verification depth (the 5x runtime story). *)
    Test.make ~name:"ablation/fetch-passes-1"
      (stage (fun () -> Cet_baselines.Fetch.analyze ~passes:1 spec_bin.w_reader));
    Test.make ~name:"ablation/fetch-passes-22"
      (stage (fun () -> Cet_baselines.Fetch.analyze ~passes:22 spec_bin.w_reader));
  ]

(* ARM BTI extension (SSVI). *)
let bench_arm =
  let arm_bin =
    let ir =
      Cet_corpus.Generator.program ~seed:2022
        ~profile:{ Cet_corpus.Profile.spec with Cet_corpus.Profile.lang_cpp_fraction = 1.0 }
        ~index:1
    in
    let res = Cet_arm64.A64_compile.compile Cet_arm64.A64_compile.default_opts ir in
    Reader.read (Cet_elf.Writer.write ~strip:true res.Cet_arm64.A64_compile.image)
  in
  [
    Test.make ~name:"extension/bti-seeker(spec-arm64)"
      (stage (fun () -> Cet_arm64.Bti_seeker.analyze arm_bin));
  ]

(* Downstream consumers and the audit. *)
let bench_consumers =
  [
    Test.make ~name:"consumer/cfg-recover(spec)"
      (stage (fun () -> Cet_cfg.Cfg.recover spec_bin.w_reader));
    Test.make ~name:"consumer/ibt-audit(spec)"
      (stage (fun () -> Core.Audit.audit spec_bin.w_reader));
    Test.make ~name:"ablation/anchored-sweep(spec)"
      (stage (fun () -> FS.analyze ~anchored:true spec_bin.w_reader));
  ]

(* Substrates. *)
let bench_substrates =
  let stripped_bytes =
    Cet_elf.Writer.write ~strip:true
      (Cet_compiler.Link.link O.default
         (Cet_corpus.Generator.program ~seed:2022 ~profile:micro_corpus_profile ~index:0))
        .image
  in
  [
    Test.make ~name:"substrate/linear-sweep(spec)"
      (stage (fun () -> Linear.sweep_text spec_bin.w_reader));
    Test.make ~name:"substrate/elf-read"
      (stage (fun () -> Reader.read stripped_bytes));
    Test.make ~name:"substrate/eh-frame-decode(spec)"
      (stage (fun () ->
           match Reader.find_section spec_bin.w_reader ".eh_frame" with
           | Some s -> Cet_eh.Eh_frame.decode ~vaddr:s.vaddr s.data
           | None -> []));
    Test.make ~name:"substrate/compile+link"
      (stage (fun () ->
           Cet_compiler.Link.compile O.default
             (Cet_corpus.Generator.program ~seed:7 ~profile:micro_corpus_profile ~index:0)));
  ]

(* The SWAR anchor scan and the stream-free index scan, with a memcpy row
   as the throughput yardstick (the human output prints GB/s over the same
   [.text]), so future sweep changes are gated on the kernel and not only
   on the end-to-end analyses that amortise it. *)
let spec_text =
  match Reader.find_section spec_bin.w_reader ".text" with
  | Some s -> s.Reader.data
  | None -> assert false

let bench_kernels =
  let arch = Cet_x86.Arch.X64 in
  [
    Test.make ~name:"kernel/anchor-offsets-swar(spec)"
      (stage (fun () -> Cet_disasm.Prescan.anchor_offsets arch spec_text));
    Test.make ~name:"kernel/scan-indexes(spec)"
      (stage (fun () ->
           Cet_disasm.Substrate.indexes (Cet_disasm.Substrate.create spec_bin.w_reader)));
    Test.make ~name:"kernel/memcpy(spec)"
      (stage (fun () -> Bytes.of_string spec_text));
    (* The flight recorder's hot path: a batch of enabled records into the
       per-domain ring.  Enable/disable are single atomic stores, so toggling
       inside the staged function does not perturb the measurement.  Not a
       byte-streaming kernel — no GB/s column. *)
    Test.make ~name:"kernel/journal-record(batch=64)"
      (stage (fun () ->
           let module J = Cet_telemetry.Journal in
           J.enable ();
           for i = 0 to 63 do
             J.record ~v:i J.Diag "bench/journal"
           done;
           J.disable ()));
    (* Raw scheduler overhead: 4096 trivial items through the work-stealing
       pool (create + map + join), so admission, deques and stealing are
       gated independently of the harness rows that amortise them.  Not a
       byte-streaming kernel — no GB/s column. *)
    Test.make ~name:"kernel/work-queue(items=4096)"
      (stage (fun () ->
           let module W = Cet_util.Work_queue in
           let t = W.create (W.config ()) in
           ignore (W.map t 4096 (fun k -> k) : int array)));
  ]

(* The substrate's raison d'être: one binary through FunSeeker and the
   three Table III baselines, with each tool re-deriving every per-binary
   fact (legacy entry points, one fresh substrate per call) vs all four
   sharing one memoised substrate — the harness's per-binary unit. *)
let bench_substrate_sharing =
  let run_tools analyze_fs analyze_ida analyze_ghidra analyze_fetch x =
    ignore (analyze_fs x : FS.result);
    ignore (analyze_ida x : int list);
    ignore (analyze_ghidra x : int list);
    ignore (analyze_fetch x : int list)
  in
  [
    Test.make ~name:"substrate/per-binary-legacy(spec)"
      (stage (fun () ->
           run_tools FS.analyze Cet_baselines.Ida_like.analyze
             Cet_baselines.Ghidra_like.analyze Cet_baselines.Fetch.analyze
             spec_bin.w_reader));
    Test.make ~name:"substrate/per-binary-shared(spec)"
      (stage (fun () ->
           run_tools FS.analyze_st Cet_baselines.Ida_like.analyze_st
             Cet_baselines.Ghidra_like.analyze_st Cet_baselines.Fetch.analyze_st
             (Cet_disasm.Substrate.create spec_bin.w_reader)));
  ]

(* Corpus-level parallelism: the whole evaluation pipeline over a tiny
   corpus, sequential vs two domains.  The ratio is the perf-trajectory
   number for the multi-core harness; the second row is pinned at jobs=2
   (not the host's core count) so bench files from different hosts share
   both rows. *)
let bench_parallel_harness =
  let opts =
    { Cet_eval.Harness.default_options with Cet_eval.Harness.seed = 2022; scale = 1.0; timing = false }
  in
  let profiles =
    [ { micro_corpus_profile with Cet_corpus.Profile.programs = 2 } ]
  in
  [
    Test.make ~name:"substrate/parallel-harness(jobs=1)"
      (stage (fun () -> Cet_eval.Harness.run ~profiles ~jobs:1 opts));
    Test.make ~name:"substrate/parallel-harness(jobs=2)"
      (stage (fun () -> Cet_eval.Harness.run ~profiles ~jobs:2 opts));
  ]

(* Telemetry overhead: the same full-FunSeeker unit of work with the span
   registry disabled (the default, the < 2% guard rail) and enabled.
   Enable/disable are single atomic stores, so toggling inside the staged
   function costs nothing against the ms-scale analysis. *)
let bench_telemetry =
  let module Reg = Cet_telemetry.Registry in
  [
    Test.make ~name:"telemetry/funseeker-spans-off(spec)"
      (stage (fun () -> FS.analyze spec_bin.w_reader));
    Test.make ~name:"telemetry/funseeker-spans-on(spec)"
      (stage (fun () ->
           Reg.enable ();
           let r = FS.analyze spec_bin.w_reader in
           Reg.disable ();
           r));
  ]

let all_tests =
  [ bench_table1; bench_fig3 ] @ bench_table2 @ bench_table3 @ bench_ablations
  @ bench_arm @ bench_consumers @ bench_substrates @ bench_kernels
  @ bench_substrate_sharing @ bench_parallel_harness @ bench_telemetry

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

type result = { r_name : string; r_ns : float; r_runs : int }

let run_benchmarks ~quota tests =
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
          in
          let runs =
            match Hashtbl.find_opt results name with
            | Some (b : Benchmark.t) -> b.stats.samples
            | None -> 0
          in
          { r_name = name; r_ns = ns; r_runs = runs } :: acc)
        analyzed [])
    tests

let human ns =
  if ns >= 1e6 then Printf.sprintf "%9.3f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%9.3f us" (ns /. 1e3)
  else Printf.sprintf "%9.1f ns" ns

(* Machine-readable results for the perf trajectory: one BENCH_<n>.json per
   PR, an array of {name, mean_ns, runs} objects. *)
let write_json path results =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "  {\"name\": \"%s\", \"mean_ns\": %.3f, \"runs\": %d}%s\n"
            r.r_name
            (if Float.is_nan r.r_ns then 0.0 else r.r_ns)
            r.r_runs
            (if i = List.length results - 1 then "" else ","))
        results;
      output_string oc "]\n")

let () =
  let json_out = ref None and quota = ref 0.5 and only = ref None in
  let speclist =
    [
      ("--json", Arg.String (fun p -> json_out := Some p), "FILE  also write results as JSON");
      ("--quota", Arg.Set_float quota, "SEC  time budget per benchmark (default 0.5)");
      ( "--only",
        Arg.String (fun s -> only := Some s),
        "SUBSTR  run only benchmarks whose name contains SUBSTR" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--json FILE] [--quota SEC] [--only SUBSTR]";
  let tests =
    match !only with
    | None -> all_tests
    | Some sub ->
      List.filter
        (fun t ->
          List.exists
            (fun n ->
              let nl = String.length n and sl = String.length sub in
              let rec go i = i + sl <= nl && (String.sub n i sl = sub || go (i + 1)) in
              go 0)
            (Test.names t))
        all_tests
  in
  Printf.printf "FunSeeker reproduction benchmarks (one per table/figure + ablations)\n";
  Printf.printf "workloads: %s (%d fns), %s (%d fns), %s (%d fns)\n\n" coreutils_bin.w_name
    (List.length coreutils_bin.w_truth) spec_bin.w_name (List.length spec_bin.w_truth)
    clang_x86_bin.w_name
    (List.length clang_x86_bin.w_truth);
  let results = run_benchmarks ~quota:!quota tests in
  (* Kernel rows tagged (spec) get a bytes/s column: they all stream the
     same spec [.text], so the throughput is directly comparable to the
     memcpy row.  (journal-record streams no bytes and is excluded.) *)
  let text_bytes = float_of_int (String.length spec_text) in
  let ends_with suffix s =
    let ls = String.length s and lf = String.length suffix in
    ls >= lf && String.sub s (ls - lf) lf = suffix
  in
  List.iter
    (fun r ->
      let throughput =
        if
          String.length r.r_name >= 7
          && String.sub r.r_name 0 7 = "kernel/"
          && ends_with "(spec)" r.r_name
          && r.r_ns > 0.0
        then Printf.sprintf "  %7.2f GB/s" (text_bytes /. r.r_ns)
        else ""
      in
      Printf.printf "  %-38s %s/run  (%d runs)%s\n" r.r_name (human r.r_ns) r.r_runs
        throughput)
    results;
  let find n = List.find_map (fun r -> if r.r_name = n then Some r.r_ns else None) results in
  (* §V-D headline: the FunSeeker / FETCH ratio on FDE-carrying binaries. *)
  (match (find "table3/funseeker(spec)", find "table3/fetch-like(spec)") with
  | Some fs, Some fe ->
    Printf.printf "\nspeedup (spec, per-binary): FunSeeker is %.1fx faster than FETCH-like\n"
      (fe /. fs)
  | _ -> ());
  (match (find "table3/funseeker(coreutils)", find "table3/fetch-like(coreutils)") with
  | Some fs, Some fe -> Printf.printf "speedup (coreutils, per-binary): %.1fx\n" (fe /. fs)
  | _ -> ());
  (* Telemetry's overhead guarantee: disabled spans must be (close to) free. *)
  (match
     ( find "telemetry/funseeker-spans-off(spec)",
       find "telemetry/funseeker-spans-on(spec)" )
   with
  | Some off, Some on_ ->
    Printf.printf "telemetry overhead: spans-on/spans-off = %.3fx\n" (on_ /. off)
  | _ -> ());
  (match !json_out with
  | None -> ()
  | Some path ->
    write_json path results;
    Printf.printf "\nJSON written to %s\n" path);
  Printf.printf "\n(use `evaluate all` to regenerate the full tables over the corpus)\n"
