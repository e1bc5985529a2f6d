(* Stripped-binary analysis: ground truth from the unstripped twin, the
   tail-call ablation, and what survives stripping.

     dune exec examples/stripped_analysis.exe *)

module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module FS = Core.Funseeker
module GT = Cet_eval.Ground_truth

let () =
  (* A binutils-like program with tail calls and GCC hot/cold splitting. *)
  let profile =
    {
      Cet_corpus.Profile.binutils with
      Cet_corpus.Profile.programs = 1;
      funcs_lo = 120;
      funcs_hi = 140;
    }
  in
  let ir = Cet_corpus.Generator.program ~seed:1234 ~profile ~index:0 in
  let opts = { O.default with opt = O.O2 } in
  let res = Cet_compiler.Link.link opts ir in
  let unstripped = Cet_elf.Writer.write res.image in
  let stripped = Cet_elf.Writer.write ~strip:true res.image in
  Printf.printf "binary: %d bytes unstripped, %d stripped\n" (String.length unstripped)
    (String.length stripped);

  (* Ground truth comes from the unstripped twin's symbols, with the
     paper's corrections (.cold/.part excluded). *)
  let ur = Cet_elf.Reader.read unstripped in
  let st = Cet_disasm.Substrate.of_bytes stripped in
  let sr = Cet_disasm.Substrate.reader st in
  let all_func_syms =
    List.filter (fun (s : Cet_elf.Symbol.t) -> s.kind = Cet_elf.Symbol.Func)
      (Cet_elf.Reader.symbols ur)
  in
  let fragments =
    List.filter (fun (s : Cet_elf.Symbol.t) -> GT.is_fragment_name s.name) all_func_syms
  in
  Printf.printf "symbols: %d STT_FUNC, of which %d are .cold/.part fragments (excluded)\n"
    (List.length all_func_syms) (List.length fragments);
  let truth = GT.addresses (GT.from_symbols ur) in
  Printf.printf "ground truth: %d function entries\n\n" (List.length truth);
  Printf.printf "stripped binary still carries: .text=%b .eh_frame=%b .gcc_except_table=%b symtab=%b\n\n"
    (Cet_elf.Reader.find_section sr ".text" <> None)
    (Cet_elf.Reader.find_section sr ".eh_frame" <> None)
    (Cet_elf.Reader.find_section sr ".gcc_except_table" <> None)
    (Cet_elf.Reader.symbols sr <> []);

  (* The tail-call ablation on the stripped binary. *)
  Printf.printf "%-34s %10s %10s %6s %6s\n" "configuration" "precision" "recall" "fp" "fn";
  List.iter
    (fun (name, config) ->
      let r = FS.analyze_st ~config st in
      let m = Cet_eval.Metrics.compare_sets ~truth ~found:r.FS.functions in
      Printf.printf "%-34s %9.3f%% %9.3f%% %6d %6d\n" name (Cet_eval.Metrics.precision m)
        (Cet_eval.Metrics.recall m) m.Cet_eval.Metrics.fp m.Cet_eval.Metrics.fn)
    [
      ("(1) E u C", FS.config1);
      ("(2) E' u C", FS.config2);
      ("(3) E' u C u J (all jumps)", FS.config3);
      ("(4) E' u C u J' (SELECTTAILCALL)", FS.config4);
    ];
  print_newline ();
  (* Show what the remaining false negatives are. *)
  let r4 = FS.analyze_st ~config:FS.config4 st in
  let _, fns = Cet_eval.Metrics.false_entries ~truth ~found:r4.FS.functions in
  let name_of a =
    match List.find_opt (fun (_, v) -> v = a) res.Cet_compiler.Link.truth with
    | Some (n, _) -> n
    | None -> "?"
  in
  let described =
    List.map
      (fun a ->
        let n = name_of a in
        let f = List.find_opt (fun (f : Ir.func) -> f.name = n) ir.Ir.funcs in
        let why =
          match f with
          | Some f when f.dead -> "dead code"
          | Some _ -> "single-reference tail-call target"
          | None -> "?"
        in
        Printf.sprintf "  0x%x %s (%s)" a n why)
      fns
  in
  Printf.printf "remaining false negatives (%d):\n%s\n" (List.length fns)
    (String.concat "\n" described);
  print_endline
    "\nAs in SSV-C: the residual misses are dead functions and tail targets";
  print_endline "referenced by a single function (condition 2 of SELECTTAILCALL)."
