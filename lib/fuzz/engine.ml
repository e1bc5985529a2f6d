module Prng = Cet_util.Prng
module Jsonl = Cet_util.Jsonl
module Options = Cet_compiler.Options

(* ---- Seed corpus ------------------------------------------------------ *)

(* A handful of well-formed binaries spanning both architectures, C and
   C++ (for exception tables), and inline jump tables — small enough that
   thousands of mutant analyses stay fast, diverse enough that mutations
   reach every parser the robust path guards. *)
let seed_pool ~seed =
  let c_profile = Cet_corpus.Profile.scaled 0.02 Cet_corpus.Profile.coreutils in
  let cpp_profile =
    {
      (Cet_corpus.Profile.scaled 0.02 Cet_corpus.Profile.spec) with
      Cet_corpus.Profile.lang_cpp_fraction = 1.0;
    }
  in
  let build profile config index =
    let ir = Cet_corpus.Generator.program ~seed ~profile ~index in
    let res = Cet_compiler.Link.link config ir in
    Cet_elf.Writer.write ~strip:true res.Cet_compiler.Link.image
  in
  let gcc_x64 = Options.default in
  let clang_x86 =
    { Options.default with Options.compiler = Options.Clang; arch = Cet_x86.Arch.X86 }
  in
  let gcc_inline = { Options.default with Options.jump_tables_in_text = true } in
  [|
    build c_profile gcc_x64 0;
    build c_profile clang_x86 0;
    build c_profile gcc_inline 1;
    build cpp_profile gcc_x64 0;
    build cpp_profile clang_x86 1;
  |]

(* ---- Section location (for targeted mutations) ------------------------ *)

(* Little-endian field readers over the original, well-formed bytes.  Any
   structural surprise just disables the targeted mutation (caller falls
   back to blind byte flips), so plain exceptions are fine here. *)
let u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let u32 s off =
  u16 s off lor (u16 s (off + 2) lsl 16)

let u64 s off = u32 s off lor (u32 s (off + 4) lsl 32)

type region = { r_off : int; r_size : int }

(* Byte extent of the section-header table. *)
let shdr_region bytes =
  try
    let is64 = Char.code bytes.[4] = 2 in
    let shoff = if is64 then u64 bytes 0x28 else u32 bytes 0x20 in
    let shentsize = u16 bytes (if is64 then 0x3a else 0x2e) in
    let shnum = u16 bytes (if is64 then 0x3c else 0x30) in
    let size = shentsize * shnum in
    if shoff > 0 && size > 0 && shoff + size <= String.length bytes then
      Some { r_off = shoff; r_size = size }
    else None
  with _ -> None

(* File extent of a named section, resolved through [.shstrtab]. *)
let section_region bytes name =
  try
    let is64 = Char.code bytes.[4] = 2 in
    let shoff = if is64 then u64 bytes 0x28 else u32 bytes 0x20 in
    let shentsize = u16 bytes (if is64 then 0x3a else 0x2e) in
    let shnum = u16 bytes (if is64 then 0x3c else 0x30) in
    let shstrndx = u16 bytes (if is64 then 0x3e else 0x32) in
    let ent i = shoff + (i * shentsize) in
    let sh_name i = u32 bytes (ent i) in
    let sh_offset i = if is64 then u64 bytes (ent i + 0x18) else u32 bytes (ent i + 0x10) in
    let sh_size i = if is64 then u64 bytes (ent i + 0x20) else u32 bytes (ent i + 0x14) in
    let str_off = sh_offset shstrndx in
    let name_at i =
      let start = str_off + sh_name i in
      let stop = String.index_from bytes start '\000' in
      String.sub bytes start (stop - start)
    in
    let found = ref None in
    for i = 0 to shnum - 1 do
      if !found = None && name_at i = name then
        found := Some { r_off = sh_offset i; r_size = sh_size i }
    done;
    (match !found with
    | Some r when r.r_off >= 0 && r.r_size > 0 && r.r_off + r.r_size <= String.length bytes ->
      ()
    | _ -> found := None);
    !found
  with _ -> None

(* ---- Mutations -------------------------------------------------------- *)

let classes = [| "header"; "shdr"; "lsda"; "flip"; "truncate" |]

let flip_bytes g b ~off ~size ~count =
  for _ = 1 to count do
    let i = off + Prng.int g size in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int g 255)))
  done

(* Apply one mutation of [cls] to a copy of [orig]; classes whose target
   structure cannot be located degrade to blind flips so every draw still
   produces a mutant. *)
let mutate g ~cls orig =
  let len = String.length orig in
  match cls with
  | "truncate" -> String.sub orig 0 (1 + Prng.int g len)
  | _ ->
    let b = Bytes.of_string orig in
    (match cls with
    | "header" -> flip_bytes g b ~off:0 ~size:(min 64 len) ~count:(1 + Prng.int g 4)
    | "shdr" -> (
      match shdr_region orig with
      | Some r -> flip_bytes g b ~off:r.r_off ~size:r.r_size ~count:(1 + Prng.int g 8)
      | None -> flip_bytes g b ~off:0 ~size:len ~count:(1 + Prng.int g 8))
    | "lsda" -> (
      let name = if Prng.bool g then ".gcc_except_table" else ".eh_frame" in
      match section_region orig name with
      | Some r ->
        if Prng.bool g then
          (* Truncation: zero the section's tail, which cuts LSDA records
             and CIE/FDE bodies mid-field without moving any file
             offsets. *)
          let keep = Prng.int g r.r_size in
          Bytes.fill b (r.r_off + keep) (r.r_size - keep) '\000'
        else flip_bytes g b ~off:r.r_off ~size:r.r_size ~count:(1 + Prng.int g 8)
      | None -> flip_bytes g b ~off:0 ~size:len ~count:(1 + Prng.int g 8))
    | "flip" -> flip_bytes g b ~off:0 ~size:len ~count:(1 + Prng.int g 16)
    | _ -> invalid_arg "Engine.mutate: unknown class");
    Bytes.to_string b

(* ---- Running mutants -------------------------------------------------- *)

type crash = {
  c_class : string;
  c_index : int;  (** mutant number, for replay with the same seed *)
  c_error : string;
  c_backtrace : string;
}

type summary = {
  total : int;
  per_class : (string * int) list;  (** mutants drawn per mutation class *)
  clean : int;
  degraded : int;
  rejected : int;
  timeouts : int;
  crashes : crash list;
}

let has_timeout diags =
  List.exists (fun (d : Cet_util.Diag.t) -> d.Cet_util.Diag.code = "timeout") diags

(* The robust pipeline one mutant goes through.  The substrate degrades
   and reports corrupt metadata itself; what is left here is the policy
   for an input with nothing to analyze — no [.text], or a deadline that
   ran out (during the parse, too) — an empty result plus one error
   diagnostic, added to the substrate's collector like any other. *)
let analyze ?max_seconds ~anchored bytes =
  let module Diag = Cet_util.Diag in
  let module Substrate = Cet_disasm.Substrate in
  let timeout what seconds =
    Diag.makef ~severity:Diag.Error ~domain:"core" ~code:"timeout"
      "analysis exceeded the %gs budget (in %s)" seconds what
  in
  let run () =
    match Substrate.of_bytes_diag bytes with
    | Error d -> Error d
    | Ok st ->
      let empty d =
        Option.iter (fun c -> Diag.Collector.add c d) (Substrate.diag_collector st);
        Core.Funseeker.empty_result
      in
      let r =
        if Substrate.text st = None then
          empty (Diag.error ~domain:"core" ~code:"no-text" "no .text section: empty analysis")
        else
          try Core.Funseeker.analyze_st ~anchored st
          with Cet_util.Deadline.Expired { what; seconds } -> empty (timeout what seconds)
      in
      Ok (r, Substrate.diags st)
  in
  match max_seconds with
  | None -> run ()
  | Some seconds -> (
    try Cet_util.Deadline.with_ ~seconds run
    with Cet_util.Deadline.Expired { what; seconds } ->
      Ok (Core.Funseeker.empty_result, [ timeout what seconds ]))

(* The walk order must not matter.  A substrate swept first fills the
   stream, the indexes and the facts in one walk (the harness's order);
   one scanned first runs the stream-free scan, then a stream-only sweep
   (FunSeeker's).  Both must raise alike, or agree on all three. *)
let check_walk_order ~anchored bytes =
  let module Substrate = Cet_disasm.Substrate in
  match Cet_elf.Reader.read_diag bytes with
  | Error _ -> ()
  | Ok (reader, _) ->
    let sweep st = if anchored then Substrate.sweep_anchored st else Substrate.sweep st in
    let outcome first =
      let st = Substrate.create reader in
      match
        first st;
        (Substrate.facts ~anchored st, Substrate.indexes ~anchored st, sweep st)
      with
      | r -> Ok r
      | exception e -> Error (Printexc.exn_slot_name e)
    in
    let swept = outcome (fun st -> ignore (sweep st : Cet_disasm.Linear.t)) in
    let scanned = outcome (fun st -> ignore (Substrate.facts ~anchored st : Substrate.facts)) in
    if swept <> scanned then
      failwith
        (Printf.sprintf
           "Engine.check_walk_order: a sweep first and a scan first disagree (anchored=%b)"
           anchored)

(* Per-mutant verdicts are computed in parallel but merged in index
   order, so the summary stays deterministic in [seed] whatever the
   worker count. *)
type verdict = Clean | Degraded of { timeout : bool } | Rejected | Crashed of crash

let run_recording ~max_seconds ?jobs ~seed ~count () =
  let g = Prng.create seed in
  let pool = seed_pool ~seed in
  let per_class = Array.make (Array.length classes) 0 in
  (* Mutant generation stays a single sequential pass over one PRNG
     stream — the mutant at index [i] is byte-identical to what the
     pre-scheduler loop produced, and independent of [jobs]. *)
  let mutants =
    Array.init count (fun index ->
        let cls_i = Prng.int g (Array.length classes) in
        let cls = classes.(cls_i) in
        per_class.(cls_i) <- per_class.(cls_i) + 1;
        let orig = pool.(Prng.int g (Array.length pool)) in
        let mutant = mutate g ~cls orig in
        let anchored = Prng.bool g in
        (index, cls, mutant, anchored))
  in
  let wq =
    Cet_util.Work_queue.create ~observer:Cet_telemetry.Bridge.scheduler_observer
      (Cet_util.Work_queue.config ?jobs ~seed ())
  in
  let analyze k =
    let index, cls, mutant, anchored = mutants.(k) in
    match
      let r = analyze ~anchored ~max_seconds mutant in
      check_walk_order ~anchored mutant;
      r
    with
    | Ok (_, []) -> Clean
    | Ok (_, diags) -> Degraded { timeout = has_timeout diags }
    | Error _ -> Rejected
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Crashed
        {
          c_class = cls;
          c_index = index;
          c_error = Printexc.to_string e;
          c_backtrace = Printexc.raw_backtrace_to_string bt;
        }
  in
  let verdicts = Cet_util.Work_queue.map wq count analyze in
  let clean = ref 0 and degraded = ref 0 and rejected = ref 0 and timeouts = ref 0 in
  let crashes = ref [] in
  Array.iter
    (function
      | Clean -> incr clean
      | Degraded { timeout } ->
        incr degraded;
        if timeout then incr timeouts
      | Rejected -> incr rejected
      | Crashed c -> crashes := c :: !crashes)
    verdicts;
  {
    total = count;
    per_class = Array.to_list (Array.mapi (fun i n -> (classes.(i), n)) per_class);
    clean = !clean;
    degraded = !degraded;
    rejected = !rejected;
    timeouts = !timeouts;
    crashes = List.rev !crashes;
  }

(* A crash record carries its backtrace, so a run records backtraces, and
   hands the caller's setting back however it ends. *)
let run ?(max_seconds = 2.0) ?jobs ~seed ~count () =
  let saved = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace saved)
    (run_recording ~max_seconds ?jobs ~seed ~count)

(* ---- Crash report (JSONL) --------------------------------------------- *)

(* Version of the crash JSONL format; bump on any key change so replay
   tooling can refuse rows it does not understand. *)
let crash_schema = 2

let write_crashes oc s =
  List.iter
    (fun c ->
      Printf.fprintf oc
        "{\"schema\":%d,\"class\":\"%s\",\"index\":%d,\"error\":\"%s\",\"backtrace\":\"%s\"}\n"
        crash_schema (Jsonl.escape c.c_class) c.c_index (Jsonl.escape c.c_error)
        (Jsonl.escape c.c_backtrace))
    s.crashes

let read_crashes text =
  let ( let* ) = Result.bind in
  let field name conv j =
    match Option.bind (Jsonl.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped field %S" name)
  in
  let crash_of j =
    let* schema = field "schema" Jsonl.int j in
    if schema <> crash_schema then
      Error (Printf.sprintf "unsupported schema %d (want %d)" schema crash_schema)
    else
      let* c_class = field "class" Jsonl.str j in
      let* c_index = field "index" Jsonl.int j in
      let* c_error = field "error" Jsonl.str j in
      let* c_backtrace = field "backtrace" Jsonl.str j in
      Ok { c_class; c_index; c_error; c_backtrace }
  in
  let* rows = Jsonl.parse_lines text in
  List.fold_left
    (fun acc row ->
      let* acc = acc in
      let* c = crash_of row in
      Ok (acc @ [ c ]))
    (Ok []) rows

let render s =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "cetfuzz: %d mutants — %d clean, %d degraded, %d rejected, %d crashes\n"
       s.total s.clean s.degraded s.rejected (List.length s.crashes));
  if s.timeouts > 0 then
    Buffer.add_string b (Printf.sprintf "  %d analyses hit the deadline\n" s.timeouts);
  List.iter
    (fun (cls, n) -> Buffer.add_string b (Printf.sprintf "  %-10s %6d mutants\n" cls n))
    s.per_class;
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "  CRASH [%s] mutant #%d: %s\n%s" c.c_class c.c_index c.c_error
           c.c_backtrace))
    s.crashes;
  Buffer.contents b
