(* Coreutils scenario: generate a slice of the Coreutils-like suite under
   several compiler configurations and compare all four identification
   tools, the way Table III does.

     dune exec examples/coreutils_scenario.exe *)

module O = Cet_compiler.Options
module Metrics = Cet_eval.Metrics

(* Every tool reads the same per-binary substrate: the ELF is parsed and
   disassembled once, however many tools consume it. *)
let tools =
  [
    ("FunSeeker", fun st -> (Core.Funseeker.analyze_st st).Core.Funseeker.functions);
    ("IDA-like", Cet_baselines.Ida_like.analyze_st);
    ("Ghidra-like", Cet_baselines.Ghidra_like.analyze_st);
    ("FETCH-like", Cet_baselines.Fetch.analyze_st ~passes:3);
  ]

let () =
  let profile = Cet_corpus.Profile.scaled 0.05 Cet_corpus.Profile.coreutils in
  let configs =
    [
      O.default;
      { O.default with opt = O.O0; pie = false };
      { O.default with compiler = O.Clang; arch = Cet_x86.Arch.X86 };
    ]
  in
  Printf.printf "coreutils-like suite: %d programs x %d configurations\n\n"
    profile.Cet_corpus.Profile.programs (List.length configs);
  let totals = Hashtbl.create 4 in
  Cet_corpus.Dataset.iter ~profiles:[ profile ] ~configs ~seed:42 ~scale:1.0 (fun bin ->
      let st = Cet_disasm.Substrate.of_bytes bin.Cet_corpus.Dataset.stripped in
      let truth = List.map snd bin.truth in
      List.iter
        (fun (name, run) ->
          let m = Metrics.compare_sets ~truth ~found:(run st) in
          let cur =
            Option.value ~default:Metrics.empty (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name (Metrics.add cur m))
        tools);
  Printf.printf "%-12s %10s %10s %8s %8s %8s\n" "tool" "precision" "recall" "tp" "fp" "fn";
  List.iter
    (fun (name, _) ->
      let m = Hashtbl.find totals name in
      Printf.printf "%-12s %9.3f%% %9.3f%% %8d %8d %8d\n" name (Metrics.precision m)
        (Metrics.recall m) m.Metrics.tp m.Metrics.fp m.Metrics.fn)
    tools;
  print_newline ();
  print_endline
    "FunSeeker keeps both precision and recall high; the IDA model misses";
  print_endline
    "indirect-only targets, and FETCH/Ghidra suffer where Clang-x86 C code";
  print_endline "carries no frame-description entries (see Table III)."
