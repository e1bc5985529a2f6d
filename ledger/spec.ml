(* BENCHMARK.json: what the benchmark promises to measure.  The runner
   reads it to know which metrics to print and refuses to print a result
   that misses one, so the file and the program cannot drift apart. *)

module J = Cet_util.Jsonl

type workload = { w_name : string; w_why : string }

type metric = {
  m_name : string;
  m_unit : string;
  m_better : Stats.better;
  m_bound : float option;  (** end-to-end metrics only *)
}

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let all_chars ok s = String.for_all ok s
let is_alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && all_chars (fun c -> is_alnum c || String.contains "_/%.-" c) s

let valid_path s =
  String.length s >= 1
  && String.length s <= 200
  && s.[0] <> '/'
  && all_chars (fun c -> is_alnum c || String.contains "_.-/" c) s
  && not (List.mem ".." (String.split_on_char '/' s))

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name keys obj =
  match obj with
  | J.Obj fields ->
    let got = List.map fst fields in
    if List.sort compare got <> List.sort compare keys then
      err "%s: keys must be exactly [%s], got [%s]" name (String.concat ", " keys)
        (String.concat ", " got)
    else Ok (fun k -> List.assoc k fields)
  | _ -> err "%s: not an object" name

let str what v = Option.to_result ~none:(what ^ ": not a string") (J.str v)

let list what check v =
  match J.list v with
  | None -> err "%s: not a list" what
  | Some xs ->
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = check x in
        Ok (y :: acc))
      xs (Ok [])

let count what ~lo ~hi xs =
  let n = List.length xs in
  if n < lo || n > hi then err "%s: %d entries, want %d to %d" what n lo hi else Ok xs

let workload v =
  let* get = field "workload" [ "name"; "why" ] v in
  let* w_name = str "workload name" (get "name") in
  let* w_why = str "workload why" (get "why") in
  if not (valid_name w_name) then err "bad workload name %S" w_name
  else if String.length w_why > 200 || String.contains w_why '\n' then
    err "workload %s: why must be one line of at most 200 characters" w_name
  else Ok { w_name; w_why }

let metric ~bounded v =
  let keys = [ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else [] in
  let* get = field "metric" keys v in
  let* m_name = str "metric name" (get "name") in
  let* m_unit = str "metric unit" (get "unit") in
  let* better = str "metric better" (get "better") in
  let* m_better =
    Option.to_result ~none:(m_name ^ ": better must be lower or higher")
      (Stats.better_of_string better)
  in
  let* m_bound =
    if not bounded then Ok None
    else
      match J.num (get "bound") with
      | Some b when b >= 0.0 && b <= 0.25 -> Ok (Some b)
      | _ -> err "%s: bound must be a number from 0 to 0.25" m_name
  in
  if not (valid_name m_name) then err "bad metric name %S" m_name
  else if not (valid_unit m_unit) then err "%s: bad unit %S" m_name m_unit
  else Ok { m_name; m_unit; m_better; m_bound }

let distinct what names =
  if List.length (List.sort_uniq compare names) = List.length names then Ok ()
  else err "%s: a name is used twice" what

let of_json v =
  let* get =
    field "BENCHMARK.json"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      v
  in
  let* command = list "command" (str "command") (get "command") in
  let* command = count "command" ~lo:1 ~hi:32 command in
  let* paths = list "paths" (str "paths") (get "paths") in
  let* paths = count "paths" ~lo:1 ~hi:16 paths in
  let* run_seconds =
    match J.int (get "run_seconds") with
    | Some s when s >= 1 && s <= 60 -> Ok s
    | _ -> err "run_seconds must be a whole number from 1 to 60"
  in
  let* workloads = list "workloads" workload (get "workloads") in
  let* workloads = count "workloads" ~lo:2 ~hi:8 workloads in
  let* end_to_end = list "end_to_end" (metric ~bounded:true) (get "end_to_end") in
  let* end_to_end = count "end_to_end" ~lo:1 ~hi:16 end_to_end in
  let* per_layer = list "per_layer" (metric ~bounded:false) (get "per_layer") in
  let* per_layer = count "per_layer" ~lo:1 ~hi:128 per_layer in
  let* () = distinct "workloads" (List.map (fun w -> w.w_name) workloads) in
  let* () = distinct "metrics" (List.map (fun m -> m.m_name) (end_to_end @ per_layer)) in
  if List.exists (fun s -> String.length s > 200) command then
    err "command: an argument is longer than 200 characters"
  else if not (List.for_all valid_path paths) then err "paths: a path is malformed"
  else if
    not
      (List.exists
         (fun m -> m.m_name = "setup_s" && m.m_unit = "s" && m.m_better = Stats.Lower)
         end_to_end)
  then err "end_to_end must include setup_s in s, lower is better"
  else Ok { command; paths; run_seconds; workloads; end_to_end; per_layer }

let parse s =
  let* v = J.parse s in
  of_json v

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (parse s)
  | exception Sys_error e -> Error e

let to_json t : Json.t =
  let strs l = J.List (List.map (fun s -> J.Str s) l) in
  let metric m =
    J.Obj
      ([
         ("name", J.Str m.m_name);
         ("unit", J.Str m.m_unit);
         ("better", J.Str (Stats.string_of_better m.m_better));
       ]
      @ match m.m_bound with Some b -> [ ("bound", J.Num b) ] | None -> [])
  in
  J.Obj
    [
      ("command", strs t.command);
      ("paths", strs t.paths);
      ("run_seconds", Json.int t.run_seconds);
      ( "workloads",
        J.List
          (List.map (fun w -> J.Obj [ ("name", J.Str w.w_name); ("why", J.Str w.w_why) ]) t.workloads)
      );
      ("end_to_end", J.List (List.map metric t.end_to_end));
      ("per_layer", J.List (List.map metric t.per_layer));
    ]

let find_workload t name = List.find_opt (fun w -> w.w_name = name) t.workloads
