(* funseeker — identify function entries in a CET-enabled ELF binary.

   Usage: funseeker [--config 1|2|3|4] [--stats] [--truth] [--explain ADDR] FILE
   Exit codes: 0 on success, 2 on usage errors and on an unreadable ELF
   or one without .text (diagnostics on stderr). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_addr s =
  match int_of_string_opt s with
  | Some a when a >= 0 -> a
  | _ ->
    Printf.eprintf "funseeker: --explain expects an address (hex 0x... or decimal), got %S\n" s;
    exit 2

(* Malformed input ends in a diagnostic: an unreadable ELF or one without
   [.text] exits 2 with the reasons on stderr; anything the analysis
   degraded is reported on stderr after the still complete output. *)
let fail diags =
  prerr_string (Cet_util.Diag.render diags);
  exit 2

let run file config_no anchored stats with_truth explain =
  let config =
    match config_no with
    | 1 -> Core.Funseeker.config1
    | 2 -> Core.Funseeker.config2
    | 3 -> Core.Funseeker.config3
    | 4 -> Core.Funseeker.config4
    | n ->
      Printf.eprintf "funseeker: --config expects 1, 2, 3 or 4 (Table II), got %d\n" n;
      exit 2
  in
  (* --stats doubles as the telemetry switch: phase spans recorded during
     the analysis are reported to stderr at the end. *)
  if stats then Cet_telemetry.Registry.enable ();
  let st =
    match Cet_disasm.Substrate.of_bytes_diag (read_file file) with
    | Ok st -> st
    | Error d -> fail [ d ]
  in
  if Cet_disasm.Substrate.text st = None then
    fail
      (Cet_disasm.Substrate.diags st
      @ [ Cet_util.Diag.error ~domain:"core" ~code:"no-text" "no .text section to analyze" ]);
  let reader = Cet_disasm.Substrate.reader st in
  let explain = Option.map parse_addr explain in
  if Cet_elf.Reader.machine reader = Cet_elf.Consts.em_aarch64 then begin
    if explain <> None then begin
      Printf.eprintf "funseeker: --explain is x86/CET-only (decision provenance is not \
ported to the BTI seeker)\n";
      exit 2
    end;
    (* BTI-enabled AArch64 binary: route to the ported seeker (SSVI). *)
    let r = Cet_arm64.Bti_seeker.analyze reader in
    List.iter (fun addr -> Printf.printf "0x%x\n" addr) r.Cet_arm64.Bti_seeker.functions;
    prerr_string (Cet_util.Diag.render (Cet_disasm.Substrate.diags st));
    if stats then begin
      Printf.eprintf "aarch64/BTI mode\n";
      Printf.eprintf "functions: %d\n" (List.length r.functions);
      Printf.eprintf "bti c markers: %d, bti j markers: %d\n" r.bti_c_total r.bti_j_total;
      Printf.eprintf "direct call targets: %d (tail calls kept: %d)\n" r.call_target_count
        r.tail_calls_selected;
      prerr_string (Cet_telemetry.Report.render ~timing:true ())
    end;
    exit 0
  end;
  if not (Cet_elf.Reader.cet_enabled reader) then
    prerr_endline "warning: binary does not advertise IBT in .note.gnu.property";
  match explain with
  | Some addr ->
    (* Evidence chain for one address: rerun the requested configuration
       with decision provenance and print why the address was (not)
       identified. *)
    let prov = Core.Provenance.create () in
    ignore (Core.Funseeker.analyze_st ~config ~anchored ~prov st : Core.Funseeker.result);
    print_string (Core.Provenance.explain prov addr);
    prerr_string (Cet_util.Diag.render (Cet_disasm.Substrate.diags st))
  | None ->
  let r = Core.Funseeker.analyze_st ~config ~anchored st in
  List.iter (fun addr -> Printf.printf "0x%x\n" addr) r.Core.Funseeker.functions;
  prerr_string (Cet_util.Diag.render (Cet_disasm.Substrate.diags st));
  if stats then begin
    Printf.eprintf "functions: %d\n" (List.length r.functions);
    Printf.eprintf "endbr instructions: %d\n" r.endbr_total;
    Printf.eprintf "  filtered (indirect-return sites): %d\n" r.filtered_indirect_return;
    Printf.eprintf "  filtered (landing pads): %d\n" r.filtered_landing_pads;
    Printf.eprintf "direct call targets: %d\n" r.call_target_count;
    Printf.eprintf "direct jump targets: %d (tail calls kept: %d)\n" r.jump_target_count
      r.tail_calls_selected;
    Printf.eprintf "linear-sweep resyncs: %d\n" r.resync_errors;
    prerr_string (Cet_telemetry.Report.render ~timing:true ())
  end;
  if with_truth then begin
    let truth = Cet_eval.Ground_truth.from_symbols reader in
    if truth = [] then prerr_endline "no ground truth: binary is stripped"
    else begin
      let addrs = Cet_eval.Ground_truth.addresses truth in
      let c = Cet_eval.Metrics.compare_sets ~truth:addrs ~found:r.functions in
      Printf.eprintf "vs symbols: precision %.3f%%, recall %.3f%% (tp=%d fp=%d fn=%d)\n"
        (Cet_eval.Metrics.precision c) (Cet_eval.Metrics.recall c) c.tp c.fp c.fn
    end
  end

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let config_no =
  let doc =
    "Ablation configuration (1-4, Table II); 4 is full FunSeeker.  Anything \
     else is a usage error (exit 2)."
  in
  Arg.(value & opt int 4 & info [ "config" ] ~doc)

let anchored =
  let doc = "Use the end-branch-anchored sweep (robust to inline data, SSVI)." in
  Arg.(value & flag & info [ "anchored" ] ~doc)

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print analysis statistics to stderr.")

let with_truth =
  Arg.(value & flag & info [ "truth" ] ~doc:"Compare against .symtab ground truth.")

let explain =
  let doc =
    "Print the decision-provenance evidence chain for $(docv) (hex 0x... or \
     decimal) instead of the entry list: candidate sources, FILTERENDBR \
     decision with its reason, SELECTTAILCALL votes, final verdict."
  in
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"ADDR" ~doc)

let cmd =
  let doc = "FunSeeker: function identification for CET-enabled binaries" in
  Cmd.v (Cmd.info "funseeker" ~doc) Term.(const run $ file $ config_no $ anchored $ stats $ with_truth $ explain)

let () = exit (Cmd.eval cmd)
