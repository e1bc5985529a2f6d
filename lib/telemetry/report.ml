let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let self_ns (m : Registry.metric) =
  let s = Hist.sum m.hist - m.child_ns in
  if s < 0 then 0 else s

let self_total_ns () =
  Hashtbl.fold (fun _ m acc -> acc + self_ns m) (Registry.merged ()).Registry.spans 0

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

(* A sheet is a worker if the harness counted binaries on it; the main
   domain is a worker too (the work queue's producer runs items on it
   alongside the spawned domains). *)
let worker_sheets () =
  List.filter
    (fun s -> Registry.find_counter s "harness.binaries" > 0)
    (Registry.sheets ())

(* Counters of scheduling decisions rather than of work: whether a steal
   or a chaos worker stall happens depends on which domain took which
   item, so like the clock they stay out of the [timing:false] report. *)
let schedule_dependent name = name = "scheduler.steals" || name = "scheduler.chaos_stalls"

let render ~timing () =
  let buf = Buffer.create 2048 in
  let m = Registry.merged () in
  let spans = sorted_bindings m.Registry.spans in
  (* An empty phase table is noise, not information: sessions that enabled
     telemetry but recorded no spans (pure counter users) get no bare
     header and no zero self-time line. *)
  if spans <> [] then begin
    Buffer.add_string buf "TELEMETRY: phase breakdown (self = exclusive of nested spans)\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-28s %9s %11s %11s %10s %10s %10s\n" "phase" "calls"
         "total(ms)" "self(ms)" "mean(us)" "p50(us)" "p99(us)");
    (* A histogram with no samples has no mean and no quantiles: render
       [-] rather than a fabricated 0.000 (or a NaN) in those columns. *)
    let q hist p =
      match Hist.quantile hist p with
      | Some v -> Printf.sprintf "%10.3f" (us v)
      | None -> Printf.sprintf "%10s" "-"
    in
    List.iter
      (fun (name, (metric : Registry.metric)) ->
        let calls = Hist.count metric.hist in
        if calls = 0 then
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %9d %11.3f %11.3f %10s %10s %10s\n" name 0
               0.0 0.0 "-" "-" "-")
        else if timing then
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %9d %11.3f %11.3f %10.3f %s %s\n" name
               calls
               (ms (Hist.sum metric.hist))
               (ms (self_ns metric))
               (us (int_of_float (Hist.mean metric.hist)))
               (q metric.hist 0.5) (q metric.hist 0.99))
        else
          Buffer.add_string buf
            (Printf.sprintf "  %-28s %9d %11.3f %11.3f %10.3f %10.3f %10.3f\n" name
               calls 0.0 0.0 0.0 0.0 0.0))
      spans;
    let self_sum =
      Hashtbl.fold (fun _ metric acc -> acc + self_ns metric) m.Registry.spans 0
    in
    Buffer.add_string buf
      (Printf.sprintf "  phase self-time sum: %.3f ms (worker busy time covered by spans)\n"
         (if timing then ms self_sum else 0.0))
  end;
  let counters =
    List.filter
      (fun (name, _) -> timing || not (schedule_dependent name))
      (sorted_bindings m.Registry.counters)
  in
  if counters <> [] then begin
    Buffer.add_string buf "COUNTERS\n";
    List.iter
      (fun (name, (c : Registry.counter)) ->
        Buffer.add_string buf (Printf.sprintf "  %-38s %12d\n" name c.n))
      counters
  end;
  if timing then begin
    let gauges = sorted_bindings m.Registry.gauges in
    if gauges <> [] then begin
      Buffer.add_string buf "GAUGES\n";
      List.iter
        (fun (name, (g : Registry.gauge)) ->
          Buffer.add_string buf (Printf.sprintf "  %-38s %12.3f\n" name g.g))
        gauges
    end;
    (match worker_sheets () with
    | [] -> ()
    | workers ->
      Buffer.add_string buf "WORKERS\n";
      List.iteri
        (fun i s ->
          let binaries = Registry.find_counter s "harness.binaries" in
          let busy =
            Hashtbl.fold (fun _ metric acc -> acc + self_ns metric) s.Registry.spans 0
          in
          let rate =
            if busy = 0 then 0.0 else float_of_int binaries /. (float_of_int busy /. 1e9)
          in
          Buffer.add_string buf
            (Printf.sprintf "  worker %-2d %8d binaries %10.3f s busy %10.1f binaries/s\n"
               i binaries
               (float_of_int busy /. 1e9)
               rate))
        workers);
    let gc = Gc.quick_stat () in
    Buffer.add_string buf
      (Printf.sprintf
         "GC minor/major collections: %d/%d  minor words: %.0f  promoted: %.0f  heap words: %d\n"
         gc.Gc.minor_collections gc.Gc.major_collections gc.Gc.minor_words
         gc.Gc.promoted_words gc.Gc.heap_words)
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON-lines trace                                                   *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let write_trace oc =
  let sheets = Registry.sheets () in
  Printf.fprintf oc "{\"type\":\"meta\",\"sheets\":%d}\n" (List.length sheets);
  List.iter
    (fun (s : Registry.sheet) ->
      List.iter
        (fun (e : Registry.event) ->
          Printf.fprintf oc
            "{\"type\":\"span\",\"sheet\":%d,\"name\":%s,\"depth\":%d,\"start_ns\":%d,\"dur_ns\":%d}\n"
            e.ev_sheet (json_string e.ev_name) e.ev_depth e.ev_start_ns e.ev_dur_ns)
        (List.rev s.events))
    sheets;
  let m = Registry.merged () in
  List.iter
    (fun (name, (metric : Registry.metric)) ->
      let p q = match Hist.quantile metric.hist q with Some v -> v | None -> 0 in
      Printf.fprintf oc
        "{\"type\":\"phase\",\"name\":%s,\"calls\":%d,\"total_ns\":%d,\"self_ns\":%d,\"min_ns\":%d,\"max_ns\":%d,\"p50_ns\":%d,\"p99_ns\":%d}\n"
        (json_string name) (Hist.count metric.hist) (Hist.sum metric.hist)
        (self_ns metric) (Hist.min_value metric.hist) (Hist.max_value metric.hist)
        (p 0.5) (p 0.99))
    (sorted_bindings m.Registry.spans);
  List.iter
    (fun (name, (c : Registry.counter)) ->
      Printf.fprintf oc "{\"type\":\"counter\",\"name\":%s,\"value\":%d}\n"
        (json_string name) c.n)
    (sorted_bindings m.Registry.counters);
  List.iter
    (fun (name, (g : Registry.gauge)) ->
      Printf.fprintf oc "{\"type\":\"gauge\",\"name\":%s,\"value\":%.6f}\n"
        (json_string name) g.g)
    (sorted_bindings m.Registry.gauges)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event format                                          *)
(* ------------------------------------------------------------------ *)

(* One complete ("ph":"X") event per recorded span, timestamps and
   durations in microseconds as the format requires, one tid per sheet so
   Perfetto lays workers out as parallel tracks.  Emitted as a plain JSON
   array — the simplest of the two container layouts chrome://tracing
   accepts. *)
let write_trace_chrome oc =
  output_string oc "[";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  List.iter
    (fun (s : Registry.sheet) ->
      List.iter
        (fun (e : Registry.event) ->
          sep ();
          Printf.fprintf oc
            "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d}"
            (json_string e.ev_name)
            (float_of_int e.ev_start_ns /. 1e3)
            (float_of_int e.ev_dur_ns /. 1e3)
            e.ev_sheet)
        (List.rev s.events))
    (Registry.sheets ());
  (* Failure-shaped journal events become instant markers on the same
     timeline (same tid as the domain's span track), so Perfetto shows a
     diag/retry/quarantine pin at the moment it happened. *)
  List.iter
    (fun (r : Journal.ring) ->
      List.iter
        (fun (e : Journal.event) ->
          match e.Journal.j_kind with
          | Journal.Diag | Journal.Retry | Journal.Quarantine
          | Journal.Backoff | Journal.Breaker | Journal.Shed ->
            sep ();
            Printf.fprintf oc
              "{\"name\":%s,\"ph\":\"i\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"s\":\"t\"}"
              (json_string
                 (Journal.kind_label e.Journal.j_kind ^ ":" ^ e.Journal.j_name))
              (float_of_int e.Journal.j_ns /. 1e3)
              e.Journal.j_ring
          | Journal.Phase_begin | Journal.Phase_end | Journal.Deadline_slack
          | Journal.Steal ->
            ())
        (Journal.ring_events r))
    (Journal.rings ());
  output_string oc "]\n"

(* ------------------------------------------------------------------ *)
(* OpenMetrics text exposition                                        *)
(* ------------------------------------------------------------------ *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; registry names use
   dots and dashes, which all map to '_' under a stable "cet_" prefix. *)
let metric_name raw =
  "cet_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      raw

let seconds ns = float_of_int ns /. 1e9

(* Label values live inside double quotes in the exposition format, which
   gives backslash, double-quote and line-feed escapes — and nothing
   else — their own syntax. *)
let openmetrics_label_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_openmetrics ?(info = []) oc =
  let m = Registry.merged () in
  (* The run-identity info gauge first: constant 1, all content in the
     labels (digest, seed, ...), the Prometheus idiom for joinable
     metadata — a scrape and a run manifest sharing the digest label are
     the same run. *)
  if info <> [] then begin
    Printf.fprintf oc "# HELP cet_run_info Run identity labels.\n";
    Printf.fprintf oc "# TYPE cet_run_info gauge\n";
    Printf.fprintf oc "cet_run_info{%s} 1\n"
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "%s=\"%s\"" k (openmetrics_label_escape v))
            info))
  end;
  List.iter
    (fun (name, (c : Registry.counter)) ->
      let n = metric_name name in
      Printf.fprintf oc "# HELP %s Registry counter %s.\n" n name;
      Printf.fprintf oc "# TYPE %s counter\n" n;
      Printf.fprintf oc "%s_total %d\n" n c.n)
    (sorted_bindings m.Registry.counters);
  List.iter
    (fun (name, (g : Registry.gauge)) ->
      let n = metric_name name in
      Printf.fprintf oc "# HELP %s Registry gauge %s.\n" n name;
      Printf.fprintf oc "# TYPE %s gauge\n" n;
      Printf.fprintf oc "%s %.6f\n" n g.g)
    (sorted_bindings m.Registry.gauges);
  List.iter
    (fun (name, (metric : Registry.metric)) ->
      let h = metric.Registry.hist in
      let n = metric_name ("phase_" ^ name ^ "_seconds") in
      Printf.fprintf oc "# HELP %s Span durations for phase %s.\n" n name;
      Printf.fprintf oc "# TYPE %s histogram\n" n;
      Printf.fprintf oc "# UNIT %s seconds\n" n;
      (* Power-of-two ns edges become seconds-valued [le] bounds; emit
         cumulative counts up to the last occupied bucket, then +Inf. *)
      let last =
        let l = ref (-1) in
        for i = 0 to Hist.nbuckets - 1 do
          if Hist.bucket_count h i > 0 then l := i
        done;
        !l
      in
      let cum = ref 0 in
      for i = 0 to last do
        cum := !cum + Hist.bucket_count h i;
        Printf.fprintf oc "%s_bucket{le=\"%.9g\"} %d\n" n
          (seconds (Hist.bucket_upper_bound i))
          !cum
      done;
      Printf.fprintf oc "%s_bucket{le=\"+Inf\"} %d\n" n (Hist.count h);
      Printf.fprintf oc "%s_sum %.9f\n" n (seconds (Hist.sum h));
      Printf.fprintf oc "%s_count %d\n" n (Hist.count h))
    (sorted_bindings m.Registry.spans);
  output_string oc "# EOF\n"
