let suites_order = [ "coreutils"; "binutils"; "spec" ]
let compilers_order = [ "gcc"; "clang" ]
let arch_order = [ "x86"; "x64" ]

let suite_label = function
  | "coreutils" -> "Coreutils"
  | "binutils" -> "Binutils"
  | "spec" -> "SPEC CPU 2017"
  | s -> s

(* Merge helper: visit [src] bindings in sorted key order so the keys enter
   [dst] in a deterministic order no matter how [src]'s hash buckets were
   laid out — any later fold over [dst] is then independent of how the
   corpus was partitioned across workers. *)
let sorted_bindings src =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) src []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

module Table1 = struct
  type cell = { mutable entry : int; mutable indirect : int; mutable exc : int; mutable other : int }

  type t = (string * string, cell) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let cell t key =
    match Hashtbl.find_opt t key with
    | Some c -> c
    | None ->
      let c = { entry = 0; indirect = 0; exc = 0; other = 0 } in
      Hashtbl.replace t key c;
      c

  let record t ~compiler ~suite loc =
    let c = cell t (compiler, suite) in
    match loc with
    | Core.Study.At_function_entry -> c.entry <- c.entry + 1
    | Core.Study.After_indirect_return_call -> c.indirect <- c.indirect + 1
    | Core.Study.At_landing_pad -> c.exc <- c.exc + 1
    | Core.Study.Elsewhere -> c.other <- c.other + 1

  let merge t (src : t) =
    List.iter
      (fun (key, (s : cell)) ->
        let c = cell t key in
        c.entry <- c.entry + s.entry;
        c.indirect <- c.indirect + s.indirect;
        c.exc <- c.exc + s.exc;
        c.other <- c.other + s.other)
      (sorted_bindings src)

  let shares c =
    let total = c.entry + c.indirect + c.exc + c.other in
    let pct n = if total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int total in
    (pct c.entry, pct c.indirect, pct c.exc, pct c.other)

  let share t ~compiler ~suite loc =
    let c = cell t (compiler, suite) in
    let e, i, x, o = shares c in
    match loc with
    | Core.Study.At_function_entry -> e
    | Core.Study.After_indirect_return_call -> i
    | Core.Study.At_landing_pad -> x
    | Core.Study.Elsewhere -> o

  let render t =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "TABLE I: Distribution of end-branch instruction locations.\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %-14s %12s %12s %12s\n" "" "" "Func. Entry"
         "Indirect Ret." "Exception");
    List.iter
      (fun compiler ->
        List.iter
          (fun suite ->
            match Hashtbl.find_opt t (compiler, suite) with
            | None -> ()
            | Some c ->
              let e, i, x, _ = shares c in
              Buffer.add_string buf
                (Printf.sprintf "  %-8s %-14s %11.2f%% %11.2f%% %11.2f%%\n"
                   (String.capitalize_ascii compiler) (suite_label suite) e i x))
          suites_order)
      compilers_order;
    Buffer.contents buf
end

module Fig3 = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let record t props =
    let key = Core.Study.props_key props in
    match Hashtbl.find_opt t key with
    | Some r -> incr r
    | None -> Hashtbl.replace t key (ref 1)

  let merge t (src : t) =
    List.iter
      (fun (key, n) ->
        match Hashtbl.find_opt t key with
        | Some r -> r := !r + !n
        | None -> Hashtbl.replace t key (ref !n))
      (sorted_bindings src)

  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0

  let share t key =
    let tot = total t in
    if tot = 0 then 0.0
    else
      let n = match Hashtbl.find_opt t key with Some r -> !r | None -> 0 in
      100.0 *. float_of_int n /. float_of_int tot

  let render t =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      "FIGURE 3: Relation between syntactic properties of all functions.\n";
    let order =
      [
        ("endbr+call", "EndBrAtHead & DirCallTarget");
        ("endbr", "EndBrAtHead only");
        ("endbr+jmp+call", "EndBrAtHead & DirJmpTarget & DirCallTarget");
        ("endbr+jmp", "EndBrAtHead & DirJmpTarget");
        ("call", "DirCallTarget only");
        ("jmp+call", "DirJmpTarget & DirCallTarget");
        ("jmp", "DirJmpTarget only");
        ("none", "no property (dead code)");
      ]
    in
    List.iter
      (fun (key, label) ->
        Buffer.add_string buf (Printf.sprintf "  %-44s %6.2f%%\n" label (share t key)))
      order;
    let endbr_total =
      share t "endbr" +. share t "endbr+call" +. share t "endbr+jmp"
      +. share t "endbr+jmp+call"
    in
    Buffer.add_string buf
      (Printf.sprintf "  %-44s %6.2f%%\n" "EndBrAtHead (total)" endbr_total);
    Buffer.add_string buf (Printf.sprintf "  functions observed: %d\n" (total t));
    Buffer.contents buf
end

module Table2 = struct
  type t = (string * string * int, Metrics.counts ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let record t ~compiler ~suite ~config c =
    let key = (compiler, suite, config) in
    match Hashtbl.find_opt t key with
    | Some r -> r := Metrics.add !r c
    | None -> Hashtbl.replace t key (ref c)

  let merge t (src : t) =
    List.iter
      (fun (key, c) ->
        match Hashtbl.find_opt t key with
        | Some r -> r := Metrics.add !r !c
        | None -> Hashtbl.replace t key (ref !c))
      (sorted_bindings src)

  let counts t ~compiler ~suite ~config =
    match Hashtbl.find_opt t (compiler, suite, config) with
    | Some r -> !r
    | None -> Metrics.empty

  let totals t ~config =
    Hashtbl.fold
      (fun (_, _, cfg) r acc -> if cfg = config then Metrics.add acc !r else acc)
      t Metrics.empty

  let render t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      "TABLE II: Precision and recall (%) of FunSeeker configurations.\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %-14s %s\n" "" ""
         "      (1) E+C        (2) E'+C       (3) E'+C+J     (4) E'+C+J'");
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %-14s %s\n" "" ""
         "   Prec.    Rec.   Prec.    Rec.   Prec.    Rec.   Prec.    Rec.");
    let row label cfgs =
      Buffer.add_string buf (Printf.sprintf "  %s" label);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf " %7.3f %7.3f" (Metrics.precision c) (Metrics.recall c)))
        cfgs;
      Buffer.add_char buf '\n'
    in
    List.iter
      (fun compiler ->
        List.iter
          (fun suite ->
            let cfgs = List.map (fun config -> counts t ~compiler ~suite ~config) [ 1; 2; 3; 4 ] in
            if List.exists (fun (c : Metrics.counts) -> c.tp + c.fn > 0) cfgs then
              row
                (Printf.sprintf "%-8s %-14s" (String.capitalize_ascii compiler)
                   (suite_label suite))
                cfgs)
          suites_order)
      compilers_order;
    row
      (Printf.sprintf "%-8s %-14s" "Total" "")
      (List.map (fun config -> totals t ~config) [ 1; 2; 3; 4 ]);
    Buffer.contents buf
end

module Triage = struct
  (* (config descriptor, bucket name) -> error count.  The config
     descriptor is Options.to_string's "gcc-x64-pie-O2" form, so the keys
     sort into compiler-major order for free. *)
  type t = (string * string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let record ?(n = 1) t ~config ~bucket =
    let key = (config, bucket) in
    match Hashtbl.find_opt t key with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t key (ref n)

  let merge t (src : t) =
    List.iter
      (fun ((config, bucket), n) -> record ~n:!n t ~config ~bucket)
      (sorted_bindings src)

  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0

  let bucket_totals t =
    let per_bucket = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (_, bucket) r ->
        match Hashtbl.find_opt per_bucket bucket with
        | Some b -> b := !b + !r
        | None -> Hashtbl.replace per_bucket bucket (ref !r))
      t;
    Hashtbl.fold (fun bucket r acc -> (bucket, !r) :: acc) per_bucket []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let render t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      "TRIAGE: false-positive / false-negative root causes (full FunSeeker).\n";
    if Hashtbl.length t = 0 then
      Buffer.add_string buf "  no identification errors recorded\n"
    else begin
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %-24s %8s %8s\n" "config" "bucket" "count" "share%");
      let rows = sorted_bindings t in
      (* Share is within the config's own error population: "what fails
         for gcc-x64-pie-O2" reads directly off the column. *)
      let config_total c =
        List.fold_left
          (fun acc ((c', _), r) -> if c' = c then acc + !r else acc)
          0 rows
      in
      List.iter
        (fun ((config, bucket), r) ->
          let tot = config_total config in
          Buffer.add_string buf
            (Printf.sprintf "  %-24s %-24s %8d %7.1f%%\n" config bucket !r
               (if tot = 0 then 0.0 else 100.0 *. float_of_int !r /. float_of_int tot)))
        rows;
      let all = total t in
      List.iter
        (fun (bucket, n) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-24s %-24s %8d %7.1f%%\n" "total" bucket n
               (if all = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int all)))
        (bucket_totals t);
      Buffer.add_string buf (Printf.sprintf "  errors triaged: %d\n" all)
    end;
    Buffer.contents buf

  (* One JSON object per (config, bucket) row, in the render's order, so
     the dump is byte-identical across --jobs like the table itself. *)
  let write_jsonl oc t =
    List.iter
      (fun ((config, bucket), r) ->
        Printf.fprintf oc "{\"config\":\"%s\",\"bucket\":\"%s\",\"count\":%d}\n" config
          bucket !r)
      (sorted_bindings t);
    List.iter
      (fun (bucket, n) ->
        Printf.fprintf oc "{\"config\":\"total\",\"bucket\":\"%s\",\"count\":%d}\n" bucket n)
      (bucket_totals t)
end

module Table3 = struct
  let tools = [ "funseeker"; "ida"; "ghidra"; "fetch" ]

  type cell = { mutable counts : Metrics.counts; mutable time : float; mutable bins : int }

  type t = (string * string * string, cell) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let cell t key =
    match Hashtbl.find_opt t key with
    | Some c -> c
    | None ->
      let c = { counts = Metrics.empty; time = 0.0; bins = 0 } in
      Hashtbl.replace t key c;
      c

  let record t ~arch ~suite ~tool c =
    let cl = cell t (arch, suite, tool) in
    cl.counts <- Metrics.add cl.counts c

  let record_time t ~arch ~suite ~tool dt =
    let cl = cell t (arch, suite, tool) in
    cl.time <- cl.time +. dt;
    cl.bins <- cl.bins + 1

  let merge t (src : t) =
    List.iter
      (fun (key, (s : cell)) ->
        let c = cell t key in
        c.counts <- Metrics.add c.counts s.counts;
        c.time <- c.time +. s.time;
        c.bins <- c.bins + s.bins)
      (sorted_bindings src)

  let counts t ~arch ~suite ~tool = (cell t (arch, suite, tool)).counts

  let totals t ~tool =
    Hashtbl.fold
      (fun (_, _, tl) c acc -> if tl = tool then Metrics.add acc c.counts else acc)
      t Metrics.empty

  let mean_time t ~tool =
    let time, bins =
      Hashtbl.fold
        (fun (_, _, tl) c (time, bins) ->
          if tl = tool then (time +. c.time, bins + c.bins) else (time, bins))
        t (0.0, 0)
    in
    if bins = 0 then 0.0 else time /. float_of_int bins

  let render t =
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      "TABLE III: Function identification vs. the state-of-the-art tools.\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-4s %-14s %34s %17s %17s %34s\n" "" "" "FunSeeker"
         "IDA-like" "Ghidra-like" "FETCH-like");
    Buffer.add_string buf
      (Printf.sprintf "  %-4s %-14s %s\n" "" ""
         "   Prec.    Rec. Time(ms)    Prec.    Rec.    Prec.    Rec.    Prec.    Rec. Time(ms)");
    let mean_for arch suite tool =
      let c = cell t (arch, suite, tool) in
      if c.bins = 0 then 0.0 else c.time /. float_of_int c.bins *. 1000.0
    in
    List.iter
      (fun arch ->
        List.iter
          (fun suite ->
            let fs = counts t ~arch ~suite ~tool:"funseeker" in
            if fs.tp + fs.fn > 0 then begin
              let ida = counts t ~arch ~suite ~tool:"ida" in
              let gh = counts t ~arch ~suite ~tool:"ghidra" in
              let fe = counts t ~arch ~suite ~tool:"fetch" in
              Buffer.add_string buf
                (Printf.sprintf
                   "  %-4s %-14s %8.3f %7.3f %8.3f %8.3f %7.3f %8.3f %7.3f %8.3f %7.3f %8.3f\n"
                   arch (suite_label suite) (Metrics.precision fs) (Metrics.recall fs)
                   (mean_for arch suite "funseeker")
                   (Metrics.precision ida) (Metrics.recall ida) (Metrics.precision gh)
                   (Metrics.recall gh) (Metrics.precision fe) (Metrics.recall fe)
                   (mean_for arch suite "fetch"))
            end)
          suites_order)
      arch_order;
    let fs = totals t ~tool:"funseeker" in
    let ida = totals t ~tool:"ida" in
    let gh = totals t ~tool:"ghidra" in
    let fe = totals t ~tool:"fetch" in
    Buffer.add_string buf
      (Printf.sprintf
         "  %-4s %-14s %8.3f %7.3f %8.3f %8.3f %7.3f %8.3f %7.3f %8.3f %7.3f %8.3f\n"
         "" "Total" (Metrics.precision fs) (Metrics.recall fs)
         (mean_time t ~tool:"funseeker" *. 1000.0)
         (Metrics.precision ida) (Metrics.recall ida) (Metrics.precision gh)
         (Metrics.recall gh) (Metrics.precision fe) (Metrics.recall fe)
         (mean_time t ~tool:"fetch" *. 1000.0));
    let tf = mean_time t ~tool:"funseeker" and te = mean_time t ~tool:"fetch" in
    if tf > 0.0 then
      Buffer.add_string buf
        (Printf.sprintf "  speedup: FunSeeker is %.1fx faster than FETCH-like\n" (te /. tf));
    Buffer.contents buf
end
