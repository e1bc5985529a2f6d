(* The benchmark's command line.

     ledger.exe bench --workload W [--seed N] [--seconds S] [--trace 0|1]
         one run of one workload; prints each metric, then one JSON line
     ledger.exe run [--seed N] [--rounds K] [--out FILE]
         K rounds of every workload untraced, round k at seed N+k-1, each
         run a fresh process, the workload order alternating between rounds
     ledger.exe trace --trace-out FILE [--seed N]
         one traced run of every workload; the spans go to FILE as JSONL
     ledger.exe compare OLD NEW
         two files written by [run --out], paired by workload and seed and
         judged against the bounds

   Every subcommand reads BENCHMARK.json (--spec) for the metric names,
   units and bounds. *)

open Ledger_lib

module J = Cet_util.Jsonl

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

type opts = {
  mutable spec : string;
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable tiny : bool;
  mutable rounds : int;
  mutable out : string option;
  mutable files : string list;
}

let parse argv =
  let o =
    {
      spec = "BENCHMARK.json";
      workload = "";
      seed = 2022;
      seconds = None;
      trace = false;
      trace_out = None;
      tiny = false;
      rounds = 1;
      out = None;
      files = [];
    }
  in
  let specs =
    [
      ("--spec", Arg.String (fun s -> o.spec <- s), "FILE  benchmark definition (BENCHMARK.json)");
      ("--workload", Arg.String (fun s -> o.workload <- s), "NAME  workload to run");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N  workload seed (2022)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- Some s), "S  measured time per run");
      ( "--trace",
        Arg.Int (fun t -> if t = 0 || t = 1 then o.trace <- t = 1 else raise (Arg.Bad "--trace 0|1")),
        "0|1  untraced (end-to-end) or traced (per-layer) run" );
      ("--trace-out", Arg.String (fun s -> o.trace_out <- Some s), "FILE  append spans as JSONL");
      ("--tiny", Arg.Unit (fun () -> o.tiny <- true), " one small program (smoke tests)");
      ("--rounds", Arg.Int (fun n -> o.rounds <- n), "K  rounds of every workload (1)");
      ("--out", Arg.String (fun s -> o.out <- Some s), "FILE  append every run's result as JSONL");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv (Arg.align specs)
       (fun f -> o.files <- o.files @ [ f ])
       "ledger.exe bench|run|trace|compare [options]"
   with Arg.Bad m | Arg.Help m -> die "%s" m);
  o

let load_spec path = match Spec.load path with Ok s -> s | Error e -> die "%s" e
let seconds o (spec : Spec.t) = Option.value o.seconds ~default:(float_of_int spec.run_seconds)
let unit_of (metrics : Spec.metric list) name =
  (List.find (fun (m : Spec.metric) -> m.m_name = name) metrics).m_unit

(* ------------------------------------------------------------------ *)
(* bench                                                              *)
(* ------------------------------------------------------------------ *)

let bench o =
  let spec = load_spec o.spec in
  if Spec.find_workload spec o.workload = None then die "unknown workload %S" o.workload;
  let size = if o.tiny then Workload.Tiny else Workload.Full in
  let r =
    Workload.run ~name:o.workload ~size ~seed:o.seed ~seconds:(seconds o spec) ~trace:o.trace
  in
  let wanted = if o.trace then spec.per_layer else spec.end_to_end in
  let got = List.map (fun (n, _, _) -> n) r.metrics in
  let wanted_names = List.map (fun (m : Spec.metric) -> m.m_name) wanted in
  if List.sort compare got <> List.sort compare wanted_names then
    die "measured [%s], BENCHMARK.json names [%s]" (String.concat " " got)
      (String.concat " " wanted_names);
  List.iter
    (fun (name, ok) -> Printf.printf "check %s: %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  List.iter
    (fun (name, v, n) ->
      Printf.printf "%s %s %.6g %s n=%d\n" o.workload name v (unit_of wanted name) n)
    r.metrics;
  Option.iter (fun path -> Spans.append_jsonl path ~workload:o.workload r.spans) o.trace_out;
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        let _, v, _ = List.find (fun (n, _, _) -> n = m.m_name) r.metrics in
        (m.m_name, J.Obj [ ("value", J.Num v); ("unit", J.Str m.m_unit) ]))
      wanted
  in
  let correct = r.failed = 0 && List.for_all snd r.checks in
  print_endline
    (Json.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", Json.int r.attempted);
            ("failed", Json.int r.failed);
            ("metrics", J.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* Re-exec: every run in a fresh process                              *)
(* ------------------------------------------------------------------ *)

(* Runs [bench] in a child, its human lines passed to stderr, and returns
   the parsed result line. *)
let child o ~workload ~seed ~trace =
  let args =
    [ "bench"; "--spec"; o.spec; "--workload"; workload; "--seed"; string_of_int seed ]
    @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ [ "--trace"; (if trace then "1" else "0") ]
    @ (if o.tiny then [ "--tiny" ] else [])
    @ match o.trace_out with Some f when trace -> [ "--trace-out"; f ] | _ -> []
  in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  List.iter prerr_endline lines;
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
    match J.parse last with Ok v -> v | Error e -> die "%s: bad result line: %s" workload e)
  | _ -> die "%s: the run failed" workload

let result_ok v =
  J.member "correct" v = Some (J.Bool true) && Option.bind (J.member "failed" v) J.int = Some 0

let metric_value v name =
  Option.bind (J.member "metrics" v) (J.member name)
  |> Fun.flip Option.bind (J.member "value")
  |> Fun.flip Option.bind J.num

let workloads (spec : Spec.t) = List.map (fun (w : Spec.workload) -> w.w_name) spec.workloads

let print_medians spec (metrics : Spec.metric list) rows =
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.metric) ->
          let vs =
            List.filter_map (fun (w, v) -> if w = workload then metric_value v m.m_name else None) rows
          in
          (* Spread is the quartile distance over the median; MAD is the
             same noise in the metric's own unit. *)
          match vs with
          | [] -> ()
          | [ v ] -> Printf.printf "%s %s %.6g %s\n" workload m.m_name v m.m_unit
          | _ ->
            Printf.printf "%s %s %.6g %s n=%d spread=%.1f%% mad=%.3g\n" workload m.m_name
              (Stats.median vs) m.m_unit (List.length vs)
              (100.0 *. Stats.spread vs)
              (Stats.mad vs))
        metrics)
    (workloads spec)

let run o =
  let spec = load_spec o.spec in
  let out =
    Option.map (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644) o.out
  in
  let rows =
    List.concat_map
      (fun round ->
        let seed = o.seed + round - 1 in
        let order = if round mod 2 = 1 then workloads spec else List.rev (workloads spec) in
        List.map
          (fun workload ->
            let v = child o ~workload ~seed ~trace:false in
            Option.iter
              (fun oc ->
                output_string oc
                  (Json.to_string
                     (J.Obj
                        [
                          ("workload", J.Str workload);
                          ("seed", Json.int seed);
                          ("round", Json.int round);
                          ("result", v);
                        ]));
                output_char oc '\n';
                flush oc)
              out;
            (workload, v))
          order)
      (List.init o.rounds (fun i -> i + 1))
  in
  Option.iter close_out out;
  print_medians spec spec.end_to_end rows;
  if not (List.for_all (fun (_, v) -> result_ok v) rows) then begin
    prerr_endline "ledger: a run failed its correctness checks";
    exit 1
  end

let trace o =
  let spec = load_spec o.spec in
  let path = match o.trace_out with Some p -> p | None -> die "trace needs --trace-out FILE" in
  close_out (open_out path);
  let rows =
    List.map (fun workload -> (workload, child o ~workload ~seed:o.seed ~trace:true)) (workloads spec)
  in
  print_medians spec spec.per_layer rows;
  (* The span file must read back: every row whole, every workload there. *)
  let fields = [ "workload"; "id"; "parent"; "binary"; "layer"; "start_ns"; "end_ns"; "domain" ] in
  (match J.parse_lines (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> die "%s: %s" path e
  | Ok spans ->
    if not (List.for_all (fun s -> List.for_all (fun f -> J.member f s <> None) fields) spans)
    then die "%s: a span lacks a field" path;
    List.iter
      (fun w ->
        if not (List.exists (fun s -> J.member "workload" s = Some (J.Str w)) spans) then
          die "%s: no spans of %s" path w)
      (workloads spec);
    Printf.printf "%d spans in %s\n" (List.length spans) path);
  if not (List.for_all (fun (_, v) -> result_ok v) rows) then begin
    prerr_endline "ledger: a traced run failed its correctness checks";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

let read_rows path =
  match J.parse_lines (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> die "%s: %s" path e
  | Ok rows ->
    List.map
      (fun r ->
        match
          (Option.bind (J.member "workload" r) J.str, Option.bind (J.member "seed" r) J.int, J.member "result" r)
        with
        | Some w, Some seed, Some v -> ((w, seed), v)
        | _ -> die "%s: a row lacks workload, seed or result" path)
      rows

let failed_share v =
  match (Option.bind (J.member "failed" v) J.int, Option.bind (J.member "attempted" v) J.int) with
  | Some f, Some a when a > 0 -> float_of_int f /. float_of_int a
  | _ -> 1.0

let compare o =
  let spec = load_spec o.spec in
  let old_path, new_path =
    match o.files with [ a; b ] -> (a, b) | _ -> die "compare needs OLD and NEW result files"
  in
  let olds = read_rows old_path and news = read_rows new_path in
  let regressed = ref false in
  List.iter
    (fun workload ->
      let pairs f =
        List.filter_map
          (fun ((w, k), ov) ->
            if w <> workload then None
            else
              match (List.assoc_opt (w, k) news, f ov) with
              | Some nv, Some x -> Option.map (fun y -> (x, y)) (f nv)
              | _ -> None)
          olds
      in
      (* Failures have a zero bound: any rise is a regression. *)
      let fails = pairs (fun v -> Some (failed_share v)) in
      if fails <> [] then begin
        let v = Stats.verdict ~better:Stats.Lower ~bound:0.0 ~pairs:fails in
        if v = Stats.Regressed then regressed := true;
        Printf.printf "%-9s %-16s %10.4g -> %-10.4g %s\n" workload "failed_share"
          (Stats.median (List.map fst fails)) (Stats.median (List.map snd fails))
          (Stats.string_of_verdict v)
      end;
      List.iter
        (fun (m : Spec.metric) ->
          let ps = pairs (fun v -> metric_value v m.m_name) in
          if ps <> [] then begin
            let bound = Option.value m.m_bound ~default:0.0 in
            let v = Stats.verdict ~better:m.m_better ~bound ~pairs:ps in
            if v = Stats.Regressed then regressed := true;
            let base = Stats.median (List.map fst ps) and cand = Stats.median (List.map snd ps) in
            Printf.printf "%-9s %-16s %10.4g -> %-10.4g %+6.1f%% (%s is better, bound %.0f%%, %d pairs) %s\n"
              workload m.m_name base cand
              (100.0 *. (cand -. base) /. base)
              (Stats.string_of_better m.m_better)
              (100.0 *. bound) (List.length ps) (Stats.string_of_verdict v)
          end)
        spec.end_to_end)
    (workloads spec);
  if !regressed then exit 1

let () =
  if Array.length Sys.argv < 2 then die "usage: ledger.exe bench|run|trace|compare [options]";
  let o = parse (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  match Sys.argv.(1) with
  | "bench" -> (
    try bench o
    with e ->
      prerr_endline ("ledger: " ^ Printexc.to_string e);
      exit 1)
  | "run" -> run o
  | "trace" -> trace o
  | "compare" -> compare o
  | c -> die "unknown subcommand %S" c
