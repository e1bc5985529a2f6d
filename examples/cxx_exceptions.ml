(* C++ exceptions: why naive end-branch harvesting misfires on C++
   binaries, reproducing the paper's Fig. 2b observation and the Table II
   config-1 precision collapse.

     dune exec examples/cxx_exceptions.exe *)

module Ir = Cet_compiler.Ir
module O = Cet_compiler.Options
module FS = Core.Funseeker

let () =
  (* A Molecule-constructor-like function with catch blocks (508.namd). *)
  let program =
    {
      Ir.prog_name = "namd_like";
      lang = Ir.Cpp;
      funcs =
        [
          Ir.func "main" [ Ir.Call (Ir.Local "_ZN8MoleculeC2Ev") ];
          Ir.func "_ZN8MoleculeC2Ev"
            [
              Ir.Compute 3;
              Ir.Try_catch
                ( [ Ir.Call (Ir.Import "_Znwm"); Ir.Compute 2 ],
                  [ [ Ir.Compute 1 ]; [ Ir.Compute 2 ] ] );
              Ir.Try_catch ([ Ir.Call (Ir.Import "printf") ], [ [ Ir.Compute 1 ] ]);
            ];
        ];
      extra_imports = [];
    }
  in
  let result = Cet_compiler.Link.link O.default program in
  let bytes = Cet_elf.Writer.write ~strip:true result.image in
  let st = Cet_disasm.Substrate.of_bytes bytes in
  (* Show the Fig. 2b pattern: an end-branch right after the function's
     ret, heading a catch block. *)
  let lps = Cet_disasm.Substrate.landing_pads st in
  Printf.printf "landing pads recovered from .gcc_except_table: %d\n"
    (Array.length lps);
  let sweep = Cet_disasm.Substrate.sweep st in
  let lp = lps.(0) in
  Printf.printf "\ndisassembly around the first catch block (0x%x):\n" lp;
  let module Linear = Cet_disasm.Linear in
  for k = Linear.first_index_at sweep (lp - 6) to Linear.first_index_at sweep (lp + 13) - 1 do
    let i = Linear.ins sweep k in
    Printf.printf "  0x%-6x %s%s\n" i.addr
      (Cet_x86.Decoder.kind_to_string i.kind)
      (if i.addr = lp then "   <-- catch block starts here" else "")
  done;
  (* Naive harvesting (config 1) counts every catch block as a function. *)
  let truth = List.map snd result.truth in
  let score config =
    let r = FS.analyze_st ~config st in
    let m = Cet_eval.Metrics.compare_sets ~truth ~found:r.FS.functions in
    (r, m)
  in
  let r1, m1 = score FS.config1 in
  let r2, m2 = score FS.config2 in
  Printf.printf "\nconfig 1 (E u C, no filtering): precision %.1f%%  recall %.1f%%\n"
    (Cet_eval.Metrics.precision m1) (Cet_eval.Metrics.recall m1);
  Printf.printf "  -> %d end-branches harvested, %d of them catch blocks\n"
    r1.FS.endbr_total (Array.length lps);
  Printf.printf "config 2 (E' u C, FILTERENDBR):  precision %.1f%%  recall %.1f%%\n"
    (Cet_eval.Metrics.precision m2) (Cet_eval.Metrics.recall m2);
  Printf.printf "  -> filtered %d landing pads via .gcc_except_table LSDAs\n"
    r2.FS.filtered_landing_pads;
  print_newline ();
  print_endline
    "This is the Table II story: SPEC C++ binaries lose ~20-30 points of";
  print_endline
    "precision without FILTERENDBR because every catch clause starts with";
  print_endline "an end-branch (paper SSIII-B, Fig. 2b)."
