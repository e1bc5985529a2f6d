(* synthcc — compile a synthetic corpus program into a CET-enabled ELF.

   Usage:
     synthcc --suite coreutils --index 3 --compiler gcc --arch x64 \
             --opt O2 --pie -o prog.elf *)

open Cmdliner
module Options = Cet_compiler.Options

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let run profile index seed compiler target opt pie strip out =
  let ir = Cet_corpus.Generator.program ~seed ~profile ~index in
  match target with
  | `Arm64 ->
    (* SSVI extension path: BTI-enabled AArch64. *)
    let res = Cet_arm64.A64_compile.compile Cet_arm64.A64_compile.default_opts ir in
    let bytes = Cet_elf.Writer.write ~strip res.Cet_arm64.A64_compile.image in
    write_file out bytes;
    Printf.printf "%s: %d bytes, %d functions, entry 0x%x (aarch64-bti)\n" out
      (String.length bytes)
      (List.length res.Cet_arm64.A64_compile.truth)
      res.Cet_arm64.A64_compile.image.Cet_elf.Image.entry
  | `X86 arch ->
    let opts =
      {
        Options.compiler;
        arch;
        pie;
        opt;
        cf_protection = Options.Cf_full;
        jump_tables_in_text = false;
      }
    in
    let res = Cet_compiler.Link.link opts ir in
    let bytes = Cet_elf.Writer.write ~strip res.image in
    write_file out bytes;
    Printf.printf "%s: %d bytes, %d functions, entry 0x%x (%s)\n" out
      (String.length bytes) (List.length res.truth)
      res.image.Cet_elf.Image.entry (Options.to_string opts)

(* The name options are enums: an unknown name is a usage error that
   lists the accepted ones. *)
let suite =
  let suites = List.map (fun (p : Cet_corpus.Profile.t) -> (p.suite, p)) Cet_corpus.Profile.all in
  Arg.(
    value
    & opt (enum suites) Cet_corpus.Profile.coreutils
    & info [ "suite" ] ~docv:"SUITE" ~doc:"Suite: coreutils, binutils or spec.")

let index = Arg.(value & opt int 0 & info [ "index" ] ~doc:"Program index within the suite.")
let seed = Arg.(value & opt int 2022 & info [ "seed" ] ~doc:"Corpus seed.")

let compiler =
  let compilers = List.map (fun c -> (Options.compiler_name c, c)) [ Options.Gcc; Options.Clang ] in
  Arg.(
    value
    & opt (enum compilers) Options.Gcc
    & info [ "compiler" ] ~docv:"COMPILER" ~doc:"Compiler persona: gcc or clang (x86 only).")

let arch =
  let arches =
    [
      ("x86", `X86 Cet_x86.Arch.X86);
      ("x64", `X86 Cet_x86.Arch.X64);
      ("x86-64", `X86 Cet_x86.Arch.X64);
      ("arm64", `Arm64);
      ("aarch64", `Arm64);
    ]
  in
  Arg.(
    value
    & opt (enum arches) (`X86 Cet_x86.Arch.X64)
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:
          "Target: x86, x64 (or x86-64), or arm64 (or aarch64), which builds BTI code \
           with the AArch64 back end's own settings.")

let opt_level =
  let levels = List.map (fun o -> (Options.opt_name o, o)) Options.opt_levels in
  Arg.(
    value
    & opt (enum levels) Options.O2
    & info [ "opt" ] ~docv:"LEVEL" ~doc:"Optimisation level: O0, O1, O2, O3, Os or Ofast (x86 only).")

let pie = Arg.(value & flag & info [ "pie" ] ~doc:"Produce a position-independent executable (x86 only).")
let strip = Arg.(value & flag & info [ "strip" ] ~doc:"Strip the symbol table.")
let out = Arg.(value & opt string "a.out" & info [ "o"; "output" ] ~doc:"Output path.")

let cmd =
  let doc = "synthetic CET-enabled compiler driver" in
  Cmd.v (Cmd.info "synthcc" ~doc)
    Term.(
      const run $ suite $ index $ seed $ compiler $ arch $ opt_level $ pie $ strip $ out)

let () = exit (Cmd.eval cmd)
