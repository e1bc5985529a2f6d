module Jz = Cet_util.Jsonl

type binary = {
  b_suite : string;
  b_program : string;
  b_config : string;
  b_arch : string;
  b_digest : string;
  b_status : string;
  b_text_bytes : int;
  b_insns : int;
  b_resyncs : int;
  b_truth : int;
}

type artifacts = {
  a_profile : string option;
  a_quarantine : string option;
  a_trace : string option;
  a_metrics : string option;
}

type t = {
  r_digest : string;
  r_experiment : string;
  r_seed : int;
  r_scale : float;
  r_jobs : int;
  r_timing : bool;
  r_binaries : int;
  r_functions : int;
  r_quarantined : int;
  r_artifacts : artifacts;
  rows : binary list;
}

let schema = 2

let key b = b.b_suite ^ "/" ^ b.b_program ^ "[" ^ b.b_config ^ "]"

(* Reader side of the run-digest recipe.  The writer
   (Cet_eval.Harness.run_digest) folds "key=digest" lines in plan order;
   agreement is pinned by a cross-library test, and [parse] enforces it
   on every manifest read. *)
let recompute_digest rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun b ->
      Buffer.add_string buf (key b);
      Buffer.add_char buf '=';
      Buffer.add_string buf b.b_digest;
      Buffer.add_char buf '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Jz.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

(* null and absent both mean "no such artifact"; a string is a pointer. *)
let opt_str_field name j =
  match Jz.member name j with
  | None | Some Jz.Null -> Ok None
  | Some v -> (
    match Jz.str v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "field %S is neither string nor null" name))

let check_schema j =
  let* s = field "schema" Jz.int j in
  if s <> schema then
    Error (Printf.sprintf "unsupported manifest schema %d (want %d)" s schema)
  else Ok ()

let binary_of j =
  let* () = check_schema j in
  let* b_suite = field "suite" Jz.str j in
  let* b_program = field "program" Jz.str j in
  let* b_config = field "config" Jz.str j in
  let* b_arch = field "arch" Jz.str j in
  let* b_digest = field "digest" Jz.str j in
  let* b_status = field "status" Jz.str j in
  let* b_text_bytes = field "text_bytes" Jz.int j in
  let* b_insns = field "insns" Jz.int j in
  let* b_resyncs = field "resyncs" Jz.int j in
  let* b_truth = field "truth" Jz.int j in
  Ok
    {
      b_suite; b_program; b_config; b_arch; b_digest; b_status; b_text_bytes;
      b_insns; b_resyncs; b_truth;
    }

let header_of j =
  let* () = check_schema j in
  let* r_digest = field "digest" Jz.str j in
  let* r_experiment = field "experiment" Jz.str j in
  let* r_seed = field "seed" Jz.int j in
  let* r_scale = field "scale" Jz.num j in
  let* r_jobs = field "jobs" Jz.int j in
  let* r_timing = field "timing" Jz.bool j in
  let* r_binaries = field "binaries" Jz.int j in
  let* r_functions = field "functions" Jz.int j in
  let* r_quarantined = field "quarantined" Jz.int j in
  let* arts = field "artifacts" Option.some j in
  let* a_profile = opt_str_field "profile" arts in
  let* a_quarantine = opt_str_field "quarantine" arts in
  let* a_trace = opt_str_field "trace" arts in
  let* a_metrics = opt_str_field "metrics" arts in
  Ok
    {
      r_digest; r_experiment; r_seed; r_scale; r_jobs; r_timing;
      r_binaries; r_functions; r_quarantined;
      r_artifacts = { a_profile; a_quarantine; a_trace; a_metrics };
      rows = [];
    }

let parse contents =
  let* rows = Jz.parse_lines contents in
  let kind j = Option.bind (Jz.member "kind" j) Jz.str in
  match rows with
  | [] -> Error "empty manifest"
  | header :: rest ->
    let* () =
      if kind header = Some "run" then Ok ()
      else Error "first manifest row is not a kind:\"run\" header"
    in
    let* run = header_of header in
    let* bins =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          let* () =
            if kind j = Some "binary" then Ok ()
            else Error "manifest row after the header is not kind:\"binary\""
          in
          let* b = binary_of j in
          Ok (b :: acc))
        (Ok []) rest
    in
    let bins = List.rev bins in
    let recomputed = recompute_digest bins in
    if recomputed <> run.r_digest then
      Error
        (Printf.sprintf
           "manifest digest mismatch: header %s, recomputed %s (truncated or \
            edited manifest?)"
           run.r_digest recomputed)
    else Ok { run with rows = bins }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> (
    match parse contents with
    | Ok m -> Ok m
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e
