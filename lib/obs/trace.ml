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

(* One self-describing object per line.  A line that is not an object
   (a Chrome trace-event array, say) is refused rather than skipped. *)
let parse contents =
  let* rows = Jz.parse_lines contents in
  let* () = if rows = [] then Error "empty trace" else Ok () in
  let* parsed =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        match j with
        | Jz.Obj _ -> (
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
        | _ -> Error "trace row is not a JSON object (not a JSON-lines trace?)")
      (Ok empty) rows
  in
  Ok
    {
      spans = List.rev parsed.spans;
      counters = List.rev parsed.counters;
      gauges = List.rev parsed.gauges;
    }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Result.map_error (Printf.sprintf "%s: %s" path) (parse contents)
  | exception Sys_error e ->
    Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)

let counter t name =
  match List.assoc_opt name t.counters with Some v -> v | None -> 0

let gauge t name =
  match List.assoc_opt name t.gauges with Some v -> v | None -> 0.0

(* A plain JSON array, the simplest container chrome://tracing accepts. *)
let to_chrome t =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d}"
        (Jz.escape s.t_name)
        (float_of_int s.t_start_ns /. 1e3)
        (float_of_int s.t_dur_ns /. 1e3)
        s.t_sheet)
    t.spans;
  Buffer.add_string buf "]\n";
  Buffer.contents buf
