(* Quickstart: build a tiny CET-enabled binary with the synthetic compiler
   and identify its functions with FunSeeker.

     dune exec examples/quickstart.exe *)

module Ir = Cet_compiler.Ir
module O = Cet_compiler.Options

let () =
  (* 1. A small "C program": main calls a helper through a function
     pointer, a static helper directly, and setjmp. *)
  let program =
    {
      Ir.prog_name = "quickstart";
      lang = Ir.C;
      funcs =
        [
          Ir.func "main"
            [
              Ir.Compute 3;
              Ir.Call (Ir.Local "helper");
              Ir.Call_via_pointer "callback";
              Ir.Indirect_return_call "setjmp";
              Ir.Call (Ir.Import "printf");
            ];
          Ir.func ~linkage:Ir.Static "helper" [ Ir.Compute 4 ];
          Ir.func ~linkage:Ir.Static ~address_taken:true "callback" [ Ir.Compute 2 ];
        ];
      extra_imports = [];
    }
  in
  (* 2. Compile it the way GCC 10 would at -O2 for x86-64 PIE, then strip
     it, exactly like the paper's dataset. *)
  let result = Cet_compiler.Link.link O.default program in
  let stripped = Cet_elf.Writer.write ~strip:true result.image in
  Printf.printf "compiled %s: %d bytes, %d real functions\n\n" program.Ir.prog_name
    (String.length stripped) (List.length result.truth);
  (* 3. Run FunSeeker on the stripped bytes: parse them into a substrate
     (the per-binary facts every analysis shares), then analyze it. *)
  let found = Core.Funseeker.analyze_st (Cet_disasm.Substrate.of_bytes stripped) in
  Printf.printf "FunSeeker found %d function entries:\n" (List.length found.functions);
  List.iter
    (fun addr ->
      let name =
        match List.find_opt (fun (_, a) -> a = addr) result.truth with
        | Some (n, _) -> n
        | None -> "??"
      in
      Printf.printf "  0x%-6x %s\n" addr name)
    found.functions;
  (* 4. Score against ground truth. *)
  let truth = List.map snd result.truth in
  let m = Cet_eval.Metrics.compare_sets ~truth ~found:found.functions in
  Printf.printf "\nprecision %.1f%%  recall %.1f%%\n" (Cet_eval.Metrics.precision m)
    (Cet_eval.Metrics.recall m);
  Printf.printf
    "(the end-branch after the setjmp call site was filtered: %d indirect-return site)\n"
    found.filtered_indirect_return
