(* cetaudit — verify IBT coverage of a CET-enabled binary: every statically
   visible indirect-branch target must begin with an end-branch.

   Usage: cetaudit [--quiet] FILE            exit code 1 on violations,
                                             2 on an unreadable ELF or
                                             one without .text *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Malformed input ends in a diagnostic: an unreadable ELF or one without
   [.text] exits 2 with the reasons on stderr; anything the audit
   degraded (corrupt exception tables, an unreadable PLT) is reported on
   stderr beside the still complete report. *)
let run file quiet =
  let fail diags =
    prerr_string (Cet_util.Diag.render diags);
    exit 2
  in
  let st =
    match Cet_disasm.Substrate.of_bytes_diag (read_file file) with
    | Ok st -> st
    | Error d -> fail [ d ]
  in
  if Cet_disasm.Substrate.text st = None then
    fail
      (Cet_disasm.Substrate.diags st
      @ [ Cet_util.Diag.error ~domain:"core" ~code:"no-text" "no .text section to audit" ]);
  if not (Cet_elf.Reader.cet_enabled (Cet_disasm.Substrate.reader st)) then
    Printf.printf "note: %s does not advertise IBT in .note.gnu.property\n" file;
  let r = Core.Audit.audit_st st in
  prerr_string (Cet_util.Diag.render (Cet_disasm.Substrate.diags st));
  if not quiet then begin
    Printf.printf "%s: %d indirect-branch targets checked, %d marked, %d violations\n"
      file r.Core.Audit.checked r.marked
      (List.length r.violations);
    Printf.printf "superfluous end-branches (conservative over-marking): %d\n" r.superfluous;
    List.iter
      (fun (v : Core.Audit.violation) ->
        Printf.printf "  VIOLATION 0x%x: %s without end-branch\n" v.v_target
          (Core.Audit.reason_to_string v.v_reason))
      r.violations
  end;
  if r.violations <> [] then exit 1

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Only set the exit code.")

let cmd =
  let doc = "audit IBT (end-branch) coverage of a binary" in
  Cmd.v (Cmd.info "cetaudit" ~doc) Term.(const run $ file $ quiet)

let () = exit (Cmd.eval cmd)
