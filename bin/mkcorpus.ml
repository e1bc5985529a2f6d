(* mkcorpus — materialise the synthetic benchmark on disk, the counterpart
   of the paper's published dataset: for every program × configuration, a
   stripped ELF (what the tools see), its unstripped twin (ground-truth
   source) and a .truth file with the function entry list.

   Usage: mkcorpus --out corpus/ --scale 0.05 --seed 2022 *)

open Cmdliner
module O = Cet_compiler.Options

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let run out seed scale suites =
  if scale <= 0.0 then begin
    Printf.eprintf "mkcorpus: --scale must be positive (got %g)\n" scale;
    exit 2
  end;
  let profiles = if suites = [] then Cet_corpus.Profile.all else suites in
  let count = ref 0 and bytes = ref 0 in
  let manifest = Buffer.create 4096 in
  Buffer.add_string manifest
    (Printf.sprintf "# synthetic CET corpus  seed=%d scale=%g\n# suite program config stripped unstripped truth\n"
       seed scale);
  Cet_corpus.Dataset.iter_twins ~profiles ~seed ~scale (fun b ~unstripped ->
      let dir = Filename.concat (Filename.concat out b.Cet_corpus.Dataset.suite) b.program in
      mkdir_p dir;
      let cfg = O.to_string b.config in
      let stripped_path = Filename.concat dir (cfg ^ ".elf") in
      let unstripped_path = Filename.concat dir (cfg ^ ".unstripped.elf") in
      let truth_path = Filename.concat dir (cfg ^ ".truth") in
      write_file stripped_path b.stripped;
      write_file unstripped_path unstripped;
      let tr = Buffer.create 256 in
      List.iter
        (fun (name, addr) -> Buffer.add_string tr (Printf.sprintf "0x%x %s\n" addr name))
        b.truth;
      write_file truth_path (Buffer.contents tr);
      incr count;
      bytes := !bytes + String.length b.stripped + String.length unstripped;
      Buffer.add_string manifest
        (Printf.sprintf "%s %s %s %s %s %s\n" b.suite b.program cfg stripped_path
           unstripped_path truth_path));
  mkdir_p out;
  write_file (Filename.concat out "MANIFEST") (Buffer.contents manifest);
  Printf.printf "wrote %d binaries (%.1f MiB) under %s\n" (2 * !count)
    (float_of_int !bytes /. 1048576.0)
    out

let out = Arg.(value & opt string "corpus" & info [ "out"; "o" ] ~doc:"Output directory.")
let seed = Arg.(value & opt int 2022 & info [ "seed" ] ~doc:"Corpus seed.")
let scale =
  Arg.(value & opt float 0.05 & info [ "scale" ] ~doc:"Suite scale factor. Must be positive.")

let suites =
  let suites = List.map (fun (p : Cet_corpus.Profile.t) -> (p.suite, p)) Cet_corpus.Profile.all in
  Arg.(
    value
    & opt_all (enum suites) []
    & info [ "suite" ] ~docv:"SUITE"
        ~doc:"Restrict to a suite: coreutils, binutils or spec (repeatable).")

let cmd =
  let doc = "materialise the synthetic CET benchmark on disk" in
  Cmd.v (Cmd.info "mkcorpus" ~doc) Term.(const run $ out $ seed $ scale $ suites)

let () = exit (Cmd.eval cmd)
