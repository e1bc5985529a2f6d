module Jz = Cet_util.Jsonl

type row = {
  p_suite : string;
  p_program : string;
  p_config : string;
  p_arch : string;
  p_digest : string;
  p_text_bytes : int;
  p_insns : int;
  p_resyncs : int;
  p_truth : int;
  p_status : string;
  p_total_ms : float;
  p_phases : (string * float) list;
  p_error : string option;
  p_backtrace : string option;
}

type t = {
  r_experiment : string;
  r_seed : int;
  r_scale : float;
  r_jobs : int;
  r_timing : bool;
  r_binaries : int;
  r_functions : int;
  r_quarantined : int;
  r_trace : string option;
  rows : row list;
}

(* Bump on any key change, so a reader refuses rows it does not
   understand. *)
let schema = 3

let key p = p.p_suite ^ "/" ^ p.p_program ^ "[" ^ p.p_config ^ "]"

(* The run digest: "key=digest" lines in row order, so it identifies the
   analyzed corpus content and nothing volatile. *)
let digest rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string buf (key p);
      Buffer.add_char buf '=';
      Buffer.add_string buf p.p_digest;
      Buffer.add_char buf '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

let write_row oc p =
  let phases =
    String.concat ","
      (List.map (fun (n, t) -> Printf.sprintf "\"%s\":%.3f" (Jz.escape n) t) p.p_phases)
  in
  let opt name = function
    | None -> ""
    | Some s -> Printf.sprintf ",\"%s\":\"%s\"" name (Jz.escape s)
  in
  Printf.fprintf oc
    "{\"suite\":\"%s\",\"program\":\"%s\",\"config\":\"%s\",\"arch\":\"%s\",\"digest\":\"%s\",\"text_bytes\":%d,\"insns\":%d,\"resyncs\":%d,\"truth\":%d,\"status\":\"%s\",\"total_ms\":%.3f,\"phases\":{%s}%s%s}\n"
    (Jz.escape p.p_suite) (Jz.escape p.p_program) (Jz.escape p.p_config)
    (Jz.escape p.p_arch) (Jz.escape p.p_digest) p.p_text_bytes p.p_insns
    p.p_resyncs p.p_truth (Jz.escape p.p_status) p.p_total_ms phases
    (opt "error" p.p_error) (opt "backtrace" p.p_backtrace)

let write oc m =
  let trace = match m.r_trace with None -> "null" | Some s -> "\"" ^ Jz.escape s ^ "\"" in
  Printf.fprintf oc
    "{\"schema\":%d,\"kind\":\"run\",\"digest\":\"%s\",\"experiment\":\"%s\",\"seed\":%d,\"scale\":%g,\"jobs\":%d,\"timing\":%b,\"binaries\":%d,\"functions\":%d,\"quarantined\":%d,\"artifacts\":{\"trace\":%s}}\n"
    schema (digest m.rows) (Jz.escape m.r_experiment) m.r_seed m.r_scale m.r_jobs
    m.r_timing m.r_binaries m.r_functions m.r_quarantined trace;
  List.iter (write_row oc) m.rows

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Jz.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

(* Absent (and, in the header, null) means "none"; a string is a value. *)
let opt_str_field name j =
  match Jz.member name j with
  | None | Some Jz.Null -> Ok None
  | Some v -> (
    match Jz.str v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "field %S is neither string nor null" name))

let row_of j =
  let* p_suite = field "suite" Jz.str j in
  let* p_program = field "program" Jz.str j in
  let* p_config = field "config" Jz.str j in
  let* p_arch = field "arch" Jz.str j in
  let* p_digest = field "digest" Jz.str j in
  let* p_text_bytes = field "text_bytes" Jz.int j in
  let* p_insns = field "insns" Jz.int j in
  let* p_resyncs = field "resyncs" Jz.int j in
  let* p_truth = field "truth" Jz.int j in
  let* p_status = field "status" Jz.str j in
  let* p_total_ms = field "total_ms" Jz.num j in
  let* p_phases =
    match Jz.member "phases" j with
    | Some (Jz.Obj fields) ->
      List.fold_right
        (fun (name, v) acc ->
          let* acc = acc in
          match Jz.num v with
          | Some ms -> Ok ((name, ms) :: acc)
          | None -> Error (Printf.sprintf "phase %S is not a number" name))
        fields (Ok [])
    | _ -> Error "missing or mistyped field \"phases\""
  in
  let* p_error = opt_str_field "error" j in
  let* p_backtrace = opt_str_field "backtrace" j in
  Ok
    {
      p_suite; p_program; p_config; p_arch; p_digest; p_text_bytes; p_insns;
      p_resyncs; p_truth; p_status; p_total_ms; p_phases; p_error; p_backtrace;
    }

let header_of j =
  let* () =
    if Option.bind (Jz.member "kind" j) Jz.str = Some "run" then Ok ()
    else Error "first manifest row is not a kind:\"run\" header"
  in
  let* s = field "schema" Jz.int j in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "unsupported manifest schema %d (want %d)" s schema)
  in
  let* digest = field "digest" Jz.str j in
  let* r_experiment = field "experiment" Jz.str j in
  let* r_seed = field "seed" Jz.int j in
  let* r_scale = field "scale" Jz.num j in
  let* r_jobs = field "jobs" Jz.int j in
  let* r_timing = field "timing" Jz.bool j in
  let* r_binaries = field "binaries" Jz.int j in
  let* r_functions = field "functions" Jz.int j in
  let* r_quarantined = field "quarantined" Jz.int j in
  let* arts = field "artifacts" Option.some j in
  let* r_trace = opt_str_field "trace" arts in
  Ok
    ( digest,
      {
        r_experiment; r_seed; r_scale; r_jobs; r_timing; r_binaries; r_functions;
        r_quarantined; r_trace; rows = [];
      } )

let parse contents =
  let* lines = Jz.parse_lines contents in
  match lines with
  | [] -> Error "empty manifest"
  | header :: rest ->
    let* recorded, run = header_of header in
    let* rows =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          let* r = row_of j in
          Ok (r :: acc))
        (Ok []) rest
      |> Result.map List.rev
    in
    let recomputed = digest rows in
    if recomputed <> recorded then
      Error
        (Printf.sprintf
           "manifest digest mismatch: header %s, recomputed %s (truncated or \
            edited manifest?)"
           recorded recomputed)
    else Ok { run with rows }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Result.map_error (Printf.sprintf "%s: %s" path) (parse contents)
  | exception Sys_error e ->
    (* An open error names the path already; a read error does not. *)
    Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)
