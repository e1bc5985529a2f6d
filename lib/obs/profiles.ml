module Jz = Cet_util.Jsonl

type row = {
  suite : string;
  program : string;
  config : string;
  arch : string;
  digest : string;
  text_bytes : int;
  insns : int;
  resyncs : int;
  truth : int;
  status : string;
  total_ms : float;
  phases : (string * float) list;
}

let key r = r.suite ^ "/" ^ r.program ^ "[" ^ r.config ^ "]"

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Jz.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let row_of j =
  let* suite = field "suite" Jz.str j in
  let* program = field "program" Jz.str j in
  let* config = field "config" Jz.str j in
  let* arch = field "arch" Jz.str j in
  let* digest = field "digest" Jz.str j in
  let* text_bytes = field "text_bytes" Jz.int j in
  let* insns = field "insns" Jz.int j in
  let* resyncs = field "resyncs" Jz.int j in
  let* truth = field "truth" Jz.int j in
  let* status = field "status" Jz.str j in
  let* total_ms = field "total_ms" Jz.num j in
  let* phases_obj = field "phases" Option.some j in
  let* phases =
    match phases_obj with
    | Jz.Obj fields ->
      List.fold_left
        (fun acc (name, v) ->
          let* acc = acc in
          match Jz.num v with
          | Some ms -> Ok ((name, ms) :: acc)
          | None -> Error (Printf.sprintf "phase %S is not a number" name))
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "field \"phases\" is not an object"
  in
  Ok
    {
      suite; program; config; arch; digest; text_bytes; insns; resyncs; truth;
      status; total_ms; phases;
    }

let parse contents =
  let* rows = Jz.parse_lines contents in
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      let* r = row_of j in
      Ok (r :: acc))
    (Ok []) rows
  |> Result.map List.rev

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> (
    match parse contents with
    | Ok rows -> Ok rows
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e
