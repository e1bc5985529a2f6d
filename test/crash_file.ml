(* The reader of [cetfuzz --crash-out] rows ([Engine.write_crashes]): no
   tool reads the file back, so the round trip that keeps the format
   honest reads it here. *)

module Jsonl = Cet_util.Jsonl
module E = Cet_fuzz.Engine

(* The row version this reader understands. *)
let schema = 2

(* A whole crash JSONL document, rows whose [schema] is not {!schema}
   refused. *)
let read text =
  let ( let* ) = Result.bind in
  let field name conv j =
    match Option.bind (Jsonl.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped field %S" name)
  in
  let crash_of j =
    let* s = field "schema" Jsonl.int j in
    if s <> schema then Error (Printf.sprintf "unsupported schema %d (want %d)" s schema)
    else
      let* c_class = field "class" Jsonl.str j in
      let* c_index = field "index" Jsonl.int j in
      let* c_error = field "error" Jsonl.str j in
      let* c_backtrace = field "backtrace" Jsonl.str j in
      Ok { E.c_class; c_index; c_error; c_backtrace }
  in
  let* rows = Jsonl.parse_lines text in
  List.fold_left
    (fun acc row ->
      let* acc = acc in
      let* c = crash_of row in
      Ok (acc @ [ c ]))
    (Ok []) rows
