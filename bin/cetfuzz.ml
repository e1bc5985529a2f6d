(* cetfuzz — deterministic ELF mutation fuzzing of the robust analysis path.

   Usage:
     cetfuzz --seed 2022 --count 2000 --max-seconds 2
     cetfuzz --jobs 4 --crash-out crashes.jsonl
   Exit codes: 0 when every mutant was handled cleanly, 1 when any analysis
   crashed, 2 on usage errors. *)

open Cmdliner
let run_fuzz seed count max_seconds jobs crash_out =
  if count <= 0 then begin
    Printf.eprintf "cetfuzz: --count must be positive (got %d)\n" count;
    exit 2
  end;
  (* NaN would pass [<= 0.0] and arm a deadline that never expires. *)
  if not (Float.is_finite max_seconds) then begin
    Printf.eprintf "cetfuzz: --max-seconds must be finite (got %g)\n" max_seconds;
    exit 2
  end;
  if max_seconds <= 0.0 then begin
    Printf.eprintf "cetfuzz: --max-seconds must be positive (got %g)\n" max_seconds;
    exit 2
  end;
  (match jobs with
  | Some j when j <= 0 ->
    Printf.eprintf "cetfuzz: --jobs must be a positive worker count (got %d)\n" j;
    exit 2
  | _ -> ());
  (* An unwritable crash report is a usage error before the soak, not a
     surprise after it. *)
  let crash_oc =
    match crash_out with
    | None -> None
    | Some path -> (
      try Some (path, open_out path)
      with Sys_error msg ->
        Printf.eprintf "cetfuzz: cannot open --crash-out file: %s\n" msg;
        exit 2)
  in
  let s = Cet_fuzz.Engine.run ~max_seconds ?jobs ~seed ~count () in
  print_string (Cet_fuzz.Engine.render s);
  (match crash_oc with
  | None -> ()
  | Some (path, oc) ->
    Cet_fuzz.Engine.write_crashes oc s;
    close_out oc;
    Printf.eprintf "crash report written to %s (%d entries)\n" path
      (List.length s.Cet_fuzz.Engine.crashes));
  if s.Cet_fuzz.Engine.crashes <> [] then 1 else 0

let seed =
  let doc = "Fuzzing seed: the mutant stream (and the summary) is deterministic in it." in
  Arg.(value & opt int 2022 & info [ "seed" ] ~doc)

let count =
  let doc = "Number of mutants to generate and analyze.  Must be positive." in
  Arg.(value & opt int 2000 & info [ "count" ] ~doc)

let max_seconds =
  let doc =
    "Per-mutant analysis deadline in seconds (the no-hang bound).  Must be finite and positive."
  in
  Arg.(value & opt float 2.0 & info [ "max-seconds" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the mutant analyses (default: the hardware's \
     recommended domain count).  The summary is byte-identical to --jobs 1. \
     Must be positive."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let crash_out =
  let doc =
    "Write escaped crashes as JSON lines (schema, class, mutant index, \
     error, backtrace) to $(docv).  The file is opened before the run, so an \
     unwritable path fails fast with exit code 2."
  in
  Arg.(value & opt (some string) None & info [ "crash-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "mutation-fuzz the robust FunSeeker analysis pipeline" in
  Cmd.v
    (Cmd.info "cetfuzz" ~doc ~exits:
       [
         Cmd.Exit.info 0 ~doc:"when every mutant was handled without an escaped exception.";
         Cmd.Exit.info 1 ~doc:"when any mutant crashed the analysis.";
         Cmd.Exit.info 2 ~doc:"on usage errors.";
       ])
    Term.(
      const run_fuzz $ seed $ count $ max_seconds $ jobs $ crash_out)

let () = exit (Cmd.eval' cmd)
