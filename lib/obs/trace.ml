module Jz = Cet_util.Jsonl

type span = { t_sheet : int; t_name : string; t_start_ns : int; t_dur_ns : int }

type t = {
  spans : span list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Jz.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let empty = { spans = []; counters = []; gauges = [] }

(* The JSON-lines trace: one self-describing object per line. *)
let parse_jsonl contents =
  let* rows = Jz.parse_lines contents in
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      match Option.bind (Jz.member "type" j) Jz.str with
      | Some "span" ->
        let* t_sheet = field "sheet" Jz.int j in
        let* t_name = field "name" Jz.str j in
        let* t_start_ns = field "start_ns" Jz.int j in
        let* t_dur_ns = field "dur_ns" Jz.int j in
        Ok { acc with spans = { t_sheet; t_name; t_start_ns; t_dur_ns } :: acc.spans }
      | Some "counter" ->
        let* name = field "name" Jz.str j in
        let* value = field "value" Jz.int j in
        Ok { acc with counters = (name, value) :: acc.counters }
      | Some "gauge" ->
        let* name = field "name" Jz.str j in
        let* value = field "value" Jz.num j in
        Ok { acc with gauges = (name, value) :: acc.gauges }
      | Some _ | None -> Ok acc)
    (Ok empty) rows

(* The Chrome trace-event array: timestamps and durations are µs floats;
   they return to ns so both formats meet the analyzer in one unit. *)
let parse_chrome contents =
  let* doc = Jz.parse contents in
  let* events =
    match Jz.list doc with
    | Some l -> Ok l
    | None -> Error "chrome trace is not a JSON array"
  in
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      match Option.bind (Jz.member "ph" j) Jz.str with
      | Some "X" ->
        let* t_sheet = field "tid" Jz.int j in
        let* t_name = field "name" Jz.str j in
        let* ts = field "ts" Jz.num j in
        let* dur = field "dur" Jz.num j in
        let ns us = int_of_float (us *. 1e3) in
        Ok
          {
            acc with
            spans =
              { t_sheet; t_name; t_start_ns = ns ts; t_dur_ns = ns dur }
              :: acc.spans;
          }
      | Some _ | None -> Ok acc)
    (Ok empty) events

let parse contents =
  let n = String.length contents in
  let rec first_non_ws i =
    if i >= n then None
    else
      match contents.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_non_ws (i + 1)
      | c -> Some c
  in
  let* parsed =
    match first_non_ws 0 with
    | Some '[' -> parse_chrome contents
    | Some _ -> parse_jsonl contents
    | None -> Error "empty trace"
  in
  Ok
    {
      spans = List.rev parsed.spans;
      counters = List.rev parsed.counters;
      gauges = List.rev parsed.gauges;
    }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> (
    match parse contents with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let counter t name =
  match List.assoc_opt name t.counters with Some v -> v | None -> 0

let gauge t name =
  match List.assoc_opt name t.gauges with Some v -> v | None -> 0.0
