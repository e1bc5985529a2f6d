module Hist = Cet_telemetry.Hist

(* ------------------------------------------------------------------ *)
(* Per-phase latency aggregates                                       *)
(* ------------------------------------------------------------------ *)

type phase_stat = {
  ps_phase : string;
  ps_count : int;
  ps_total_ms : float;
  ps_mean_ms : float;
  ps_p50_ms : float;
  ps_p99_ms : float;
  ps_max_ms : float;
}

let ns_of_ms ms = int_of_float (ms *. 1e6)
let ms_of_ns ns = float_of_int ns /. 1e6

let phase_stats rows =
  (* One histogram per phase name, first-appearance order, plus a final
     "total" over the whole-binary wall time. *)
  let order = ref [] in
  let hists : (string, Hist.t * float ref) Hashtbl.t = Hashtbl.create 16 in
  let feed name ms =
    let h, total =
      match Hashtbl.find_opt hists name with
      | Some v -> v
      | None ->
        let v = (Hist.create (), ref 0.0) in
        Hashtbl.replace hists name v;
        order := name :: !order;
        v
    in
    Hist.add h (ns_of_ms ms);
    total := !total +. ms
  in
  List.iter (fun (r : Manifest.row) -> List.iter (fun (n, ms) -> feed n ms) r.p_phases) rows;
  List.iter (fun (r : Manifest.row) -> feed "total" r.p_total_ms) rows;
  List.rev_map
    (fun name ->
      let h, total = Hashtbl.find hists name in
      let q p = match Hist.quantile h p with Some v -> ms_of_ns v | None -> 0.0 in
      {
        ps_phase = name;
        ps_count = Hist.count h;
        ps_total_ms = !total;
        ps_mean_ms = (if Hist.count h = 0 then 0.0 else ms_of_ns (int_of_float (Hist.mean h)));
        ps_p50_ms = q 0.5;
        ps_p99_ms = q 0.99;
        ps_max_ms = ms_of_ns (Hist.max_value h);
      })
    !order

let render_phase_stats stats =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "PHASE LATENCY (per binary)\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-12s %7s %12s %10s %10s %10s %10s\n" "phase" "rows"
       "total(ms)" "mean(ms)" "p50(ms)" "p99(ms)" "max(ms)");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %7d %12.3f %10.3f %10.3f %10.3f %10.3f\n"
           s.ps_phase s.ps_count s.ps_total_ms s.ps_mean_ms s.ps_p50_ms
           s.ps_p99_ms s.ps_max_ms))
    stats;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Scheduler health                                                   *)
(* ------------------------------------------------------------------ *)

type health = {
  hw_workers : int;
  hw_wall_ms : float;
  hw_busy_ms : float;
  hw_busy_fraction : float;
  hw_queue_wait_ms : float;
  hw_binaries : int;
  hw_steals : int;
  hw_steal_ratio : float;
  hw_max_pending : int;
}

let health_of_trace (t : Trace.t) =
  (* Busy time: the harness.binary spans, per sheet.  Each span covers one
     binary's evaluation on its worker, so summed per-sheet durations are
     exactly the time that worker held a binary. *)
  let busy : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.t_name = "harness.binary" then begin
        let cell =
          match Hashtbl.find_opt busy s.Trace.t_sheet with
          | Some c -> c
          | None ->
            let c = ref 0 in
            Hashtbl.replace busy s.Trace.t_sheet c;
            c
        in
        cell := !cell + s.Trace.t_dur_ns
      end)
    t.Trace.spans;
  let workers = Hashtbl.length busy in
  let busy_ms =
    ms_of_ns (Hashtbl.fold (fun _ c acc -> acc + !c) busy 0)
  in
  let wall_ms = Trace.gauge t "harness.wall_s" *. 1e3 in
  let binaries = Trace.counter t "harness.binaries" in
  let steals = Trace.counter t "scheduler.steals" in
  {
    hw_workers = workers;
    hw_wall_ms = wall_ms;
    hw_busy_ms = busy_ms;
    hw_busy_fraction =
      (if wall_ms > 0.0 && workers > 0 then
         busy_ms /. (float_of_int workers *. wall_ms)
       else 0.0);
    hw_queue_wait_ms =
      (if wall_ms > 0.0 && workers > 0 then
         ((float_of_int workers *. wall_ms) -. busy_ms) /. float_of_int workers
       else 0.0);
    hw_binaries = binaries;
    hw_steals = steals;
    hw_steal_ratio =
      (if binaries > 0 then float_of_int steals /. float_of_int binaries else 0.0);
    hw_max_pending = int_of_float (Trace.gauge t "scheduler.max_pending");
  }

let render_health h =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "SCHEDULER HEALTH\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  workers %d  binaries %d  wall %.1f ms  busy %.1f ms (%.1f%% of capacity)\n"
       h.hw_workers h.hw_binaries h.hw_wall_ms h.hw_busy_ms
       (h.hw_busy_fraction *. 100.0));
  Buffer.add_string buf
    (Printf.sprintf "  queue-wait %.1f ms per worker (wall minus busy)\n"
       h.hw_queue_wait_ms);
  Buffer.add_string buf
    (Printf.sprintf
       "  steals %d (%.2f per binary)  max pending %d\n"
       h.hw_steals h.hw_steal_ratio h.hw_max_pending);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Cross-run diff                                                     *)
(* ------------------------------------------------------------------ *)

type verdict_change = {
  vc_key : string;
  vc_field : string;
  vc_old : string;
  vc_new : string;
}

type phase_delta = {
  pd_key : string;
  pd_phase : string;
  pd_old_ms : float;
  pd_new_ms : float;
  pd_pct : float;
}

type diff = {
  d_old_digest : string;
  d_new_digest : string;
  d_matched : int;
  d_added : string list;
  d_removed : string list;
  d_changed : verdict_change list;
  d_regressed : phase_delta list;
  d_improved : phase_delta list;
  d_timed : int;
}

(* Pair two row lists by content digest.  Rows sharing a digest (the same
   bytes under several names, or across renames) pair in key-sorted
   order, so duplicated content cannot cross-match arbitrarily; the
   pairing is a pure function of the two row sets.  Returns the pairs
   plus each side's unpaired keys in their original row order. *)
let join_by_digest (old_rows : Manifest.row list) (new_rows : Manifest.row list) =
  let group rows =
    let tbl : (string, Manifest.row list ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (r : Manifest.row) ->
        match Hashtbl.find_opt tbl r.p_digest with
        | Some cell -> cell := r :: !cell
        | None -> Hashtbl.replace tbl r.p_digest (ref [ r ]))
      rows;
    tbl
  in
  let old_g = group old_rows and new_g = group new_rows in
  let by_key l =
    List.sort (fun a b -> compare (Manifest.key a) (Manifest.key b)) (List.rev l)
  in
  let pairs = ref [] in
  let paired_old : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let paired_new : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* Iterate old rows (not the hashtable) so pair order is deterministic:
     first-appearance order of each digest in the old run. *)
  let seen_digest : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Manifest.row) ->
      let d = r.p_digest in
      if not (Hashtbl.mem seen_digest d) then begin
        Hashtbl.replace seen_digest d ();
        match Hashtbl.find_opt new_g d with
        | None -> ()
        | Some news ->
          let olds = by_key !(Hashtbl.find old_g d) in
          let news = by_key !news in
          let rec walk os ns =
            match (os, ns) with
            | o :: os', n :: ns' ->
              pairs := (o, n) :: !pairs;
              Hashtbl.replace paired_old (Manifest.key o) ();
              Hashtbl.replace paired_new (Manifest.key n) ();
              walk os' ns'
            | _, [] | [], _ -> ()
          in
          walk olds news
      end)
    old_rows;
  let removed =
    List.filter_map
      (fun r -> if Hashtbl.mem paired_old (Manifest.key r) then None else Some (Manifest.key r))
      old_rows
  and added =
    List.filter_map
      (fun r -> if Hashtbl.mem paired_new (Manifest.key r) then None else Some (Manifest.key r))
      new_rows
  in
  (List.rev !pairs, removed, added)

let verdict_fields (b : Manifest.row) =
  [
    ("status", b.p_status);
    ("arch", b.p_arch);
    ("text_bytes", string_of_int b.p_text_bytes);
    ("insns", string_of_int b.p_insns);
    ("resyncs", string_of_int b.p_resyncs);
    ("truth", string_of_int b.p_truth);
  ]

let diff ?(threshold = 20.0) ~(old_run : Manifest.t) ~(new_run : Manifest.t) () =
  let pairs, removed, added = join_by_digest old_run.rows new_run.rows in
  let changed =
    List.concat_map
      (fun (o, n) ->
        List.filter_map
          (fun ((fo, vo), (fn, vn)) ->
            assert (fo = fn);
            if vo = vn then None
            else Some { vc_key = Manifest.key n; vc_field = fn; vc_old = vo; vc_new = vn })
          (List.combine (verdict_fields o) (verdict_fields n)))
      pairs
  in
  (* The timing axis, on the same join: total and per-phase deltas.  A
     non-positive time on either side (--no-timing, a zeroed quarantine
     row) is never compared — there is no ratio to take. *)
  let regressed = ref [] and improved = ref [] and timed = ref 0 in
  let compare_ms key phase old_ms new_ms =
    if old_ms > 0.0 && new_ms > 0.0 then begin
      let pct = (new_ms -. old_ms) /. old_ms *. 100.0 in
      let delta =
        { pd_key = key; pd_phase = phase; pd_old_ms = old_ms; pd_new_ms = new_ms; pd_pct = pct }
      in
      if pct > threshold then regressed := delta :: !regressed
      else if pct < -.threshold then improved := delta :: !improved
    end
  in
  List.iter
    (fun ((o : Manifest.row), (n : Manifest.row)) ->
      let key = Manifest.key n in
      if o.p_total_ms > 0.0 && n.p_total_ms > 0.0 then incr timed;
      compare_ms key "total" o.p_total_ms n.p_total_ms;
      List.iter
        (fun (phase, new_ms) ->
          match List.assoc_opt phase o.p_phases with
          | Some old_ms -> compare_ms key phase old_ms new_ms
          | None -> ())
        n.p_phases)
    pairs;
  let by_severity sign l =
    List.sort
      (fun a b ->
        match compare (sign *. b.pd_pct) (sign *. a.pd_pct) with
        | 0 -> compare (a.pd_key, a.pd_phase) (b.pd_key, b.pd_phase)
        | c -> c)
      l
  in
  {
    d_old_digest = Manifest.digest old_run.rows;
    d_new_digest = Manifest.digest new_run.rows;
    d_matched = List.length pairs;
    d_added = added;
    d_removed = removed;
    d_changed = changed;
    d_regressed = by_severity 1.0 !regressed;
    d_improved = by_severity (-1.0) !improved;
    d_timed = !timed;
  }

let clean d =
  d.d_changed = [] && d.d_regressed = [] && d.d_added = [] && d.d_removed = []

let render_diff d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "cetstat diff: %s -> %s\n" d.d_old_digest d.d_new_digest);
  Buffer.add_string buf
    (Printf.sprintf
       "  joined %d binaries by content digest (%d added, %d removed)\n"
       d.d_matched (List.length d.d_added) (List.length d.d_removed));
  List.iter (fun k -> Buffer.add_string buf (Printf.sprintf "    added   %s\n" k)) d.d_added;
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "    removed %s\n" k))
    d.d_removed;
  Buffer.add_string buf
    (Printf.sprintf "  verdicts: %d changed\n" (List.length d.d_changed));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "    %-40s %-10s %s -> %s\n" c.vc_key c.vc_field c.vc_old
           c.vc_new))
    d.d_changed;
  Buffer.add_string buf
    (Printf.sprintf "  timing: %d rows timed on both sides, %d regressed, %d improved\n"
       d.d_timed
       (List.length d.d_regressed)
       (List.length d.d_improved));
  let delta_line verb x =
    Buffer.add_string buf
      (Printf.sprintf "    %s %-40s %-10s %10.3f ms -> %10.3f ms  %+7.1f%%\n" verb
         x.pd_key x.pd_phase x.pd_old_ms x.pd_new_ms x.pd_pct)
  in
  List.iter (delta_line "slower") d.d_regressed;
  List.iter (delta_line "faster") d.d_improved;
  Buffer.add_string buf
    (if clean d then "  verdict: CLEAN\n" else "  verdict: DIFFERS\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Robust anomaly detection                                           *)
(* ------------------------------------------------------------------ *)

type anomaly = {
  an_key : string;
  an_digest : string;
  an_metric : string;
  an_value : float;
  an_median : float;
  an_z : float;
}

let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  end

(* Median/MAD z-scores: robust against the very outliers being hunted —
   one straggler cannot drag a mean-based baseline toward itself.  0.6745
   rescales the MAD to the standard deviation of a normal population, the
   conventional units for the 3.5 cut.  A zero MAD (over half the
   population identical) degrades to the mean absolute deviation; a zero
   there too means a constant population, which has no outliers. *)
let robust_z xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let med = median xs in
    let devs = Array.map (fun x -> Float.abs (x -. med)) xs in
    let mad = median devs in
    let denom =
      if mad > 0.0 then mad
      else Array.fold_left ( +. ) 0.0 devs /. float_of_int n
    in
    if denom <= 0.0 then Array.make n 0.0
    else Array.map (fun x -> 0.6745 *. (x -. med) /. denom) xs
  end

let anomalies ?(z_cut = 3.5) rows =
  let ok, excluded =
    List.partition (fun (r : Manifest.row) -> r.p_status = "ok") rows
  in
  let ok = Array.of_list ok in
  let found = ref [] in
  (* min_dev is a practical-significance floor on |value - median|.  A
     near-constant population has a near-zero MAD, so clock-resolution
     noise (a 0.01% phase share against a 0.00% median) passes any pure
     z cut with an absurd score; requiring the deviation to also be
     material keeps the report to outliers worth reading. *)
  let scan metric ~min_dev value_of =
    (* Indices of ok rows this metric is defined on. *)
    let idx =
      Array.of_list
        (List.filter_map
           (fun i -> Option.map (fun v -> (i, v)) (value_of ok.(i)))
           (List.init (Array.length ok) Fun.id))
    in
    let values = Array.map snd idx in
    let zs = robust_z values in
    let med = median values in
    let hits = ref [] in
    Array.iteri
      (fun k (i, v) ->
        if Float.abs zs.(k) >= z_cut && Float.abs (v -. med) >= min_dev med then
          hits :=
            {
              an_key = Manifest.key ok.(i);
              an_digest = ok.(i).p_digest;
              an_metric = metric;
              an_value = v;
              an_median = med;
              an_z = zs.(k);
            }
            :: !hits)
      idx;
    found :=
      !found
      @ List.sort
          (fun a b ->
            match compare (Float.abs b.an_z) (Float.abs a.an_z) with
            | 0 -> compare a.an_key b.an_key
            | c -> c)
          (List.rev !hits)
  in
  scan "total_ms"
    ~min_dev:(fun med -> 0.1 *. med)
    (fun r -> if r.p_total_ms > 0.0 then Some r.p_total_ms else None);
  (* Phase shares: where does a binary's time go, as a fraction — scale-
     free, so a big binary is not an anomaly merely for being big. *)
  let phase_names =
    match Array.length ok with
    | 0 -> []
    | _ -> List.map fst ok.(0).p_phases
  in
  List.iter
    (fun phase ->
      scan ("share:" ^ phase)
        ~min_dev:(fun _ -> 0.05)
        (fun r ->
          match List.assoc_opt phase r.p_phases with
          | Some ms when r.p_total_ms > 0.0 -> Some (ms /. r.p_total_ms)
          | _ -> None))
    phase_names;
  (!found, excluded)

let render_anomalies (found, excluded) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "ANOMALIES (median/MAD robust z-score)\n";
  if found = [] then Buffer.add_string buf "  none\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "  %-16s %-40s %12s %12s %8s\n" "metric" "binary" "value"
         "median" "z");
    List.iter
      (fun a ->
        Buffer.add_string buf
          (Printf.sprintf "  %-16s %-40s %12.4f %12.4f %+8.2f\n" a.an_metric
             a.an_key a.an_value a.an_median a.an_z))
      found
  end;
  if excluded <> [] then begin
    let by_status : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun (r : Manifest.row) ->
        match Hashtbl.find_opt by_status r.p_status with
        | Some c -> incr c
        | None -> Hashtbl.replace by_status r.p_status (ref 1))
      excluded;
    let counts =
      List.sort compare
        (Hashtbl.fold (fun s c acc -> (s, !c) :: acc) by_status [])
    in
    Buffer.add_string buf
      (Printf.sprintf "  %d rows excluded from baselines (%s)\n"
         (List.length excluded)
         (String.concat ", "
            (List.map (fun (s, c) -> Printf.sprintf "%d %s" c s) counts)))
  end;
  Buffer.contents buf
