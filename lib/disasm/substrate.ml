module Arch = Cet_x86.Arch
module Decoder = Cet_x86.Decoder
module Reader = Cet_elf.Reader
module Diag = Cet_util.Diag

type indexes = {
  endbrs : int array;
  call_sites : int array;
  call_rets : int array;
  call_tgts : int array;
  call_targets : int array;
  jmp_sites : int array;
  jmp_tgts : int array;
  jmp_targets : int array;
}

type facts = {
  f_base : int;
  f_size : int;
  f_resync_errors : int;
  f_insns : int;
}

type t = {
  t_reader : Reader.t;
  t_parse_diags : Diag.t list;
  t_diag : Diag.Collector.t option;
  mutable t_text : Reader.section option;
  mutable t_text_known : bool;
  mutable t_sweep : Linear.t option;
  mutable t_anchored : Linear.t option;
  mutable t_idx : indexes option;
  mutable t_anchored_idx : indexes option;
  mutable t_facts : facts option;
  mutable t_anchored_facts : facts option;
  mutable t_pads : int array option;
  mutable t_frames : Cet_eh.Eh_frame.frame list option;
  mutable t_fde_starts : int list option;
  mutable t_fde_extents : (int * int) list option;
}

let make ?diag ?(parse_diags = []) reader =
  if Cet_telemetry.Registry.enabled () then Cet_telemetry.Registry.count "substrate.created";
  {
    t_reader = reader;
    t_parse_diags = parse_diags;
    t_diag = diag;
    t_text = None;
    t_text_known = false;
    t_sweep = None;
    t_anchored = None;
    t_idx = None;
    t_anchored_idx = None;
    t_facts = None;
    t_anchored_facts = None;
    t_pads = None;
    t_frames = None;
    t_fde_starts = None;
    t_fde_extents = None;
  }

let create reader = make reader
let of_bytes bytes = create (Reader.read bytes)

(* The robust constructor: the lenient parse, plus a collector that the
   exception-table decode below and FILTERENDBR's PLT parse report their
   degradations into.  The parse diagnostics stay a separate list so each
   is observed once, by the reader's own collector. *)
let of_bytes_diag bytes =
  match Reader.read_diag bytes with
  | Error d -> Error d
  | Ok (reader, parse_diags) -> Ok (make ~diag:(Diag.Collector.create ()) ~parse_diags reader)

let diag_collector t = t.t_diag

let diags t =
  match t.t_diag with None -> [] | Some c -> t.t_parse_diags @ Diag.Collector.list c

let reader t = t.t_reader

let text t =
  if not t.t_text_known then begin
    t.t_text <- Reader.find_section t.t_reader ".text";
    t.t_text_known <- true
  end;
  t.t_text

let sweep t =
  match t.t_sweep with
  | Some s -> s
  | None ->
    let s = Linear.sweep_text t.t_reader in
    t.t_sweep <- Some s;
    s

let sweep_anchored t =
  match t.t_anchored with
  | Some s -> s
  | None ->
    let s = Linear.sweep_text_anchored t.t_reader in
    t.t_anchored <- Some s;
    s

let facts_of_sweep (sw : Linear.t) =
  {
    f_base = sw.Linear.base;
    f_size = sw.Linear.size;
    f_resync_errors = sw.Linear.resync_errors;
    f_insns = Array.length sw.Linear.insns;
  }

let in_text fx addr = addr >= fx.f_base && addr < fx.f_base + fx.f_size
let text_end fx = fx.f_base + fx.f_size

(* ---- Derived index arrays ------------------------------------------- *)

(* Doubling int buffer shared by the single-pass index build. *)
type ibuf = { mutable arr : int array; mutable len : int }

let ibuf_create () = { arr = Array.make 64 0; len = 0 }

let ibuf_push b v =
  if b.len = Array.length b.arr then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- v;
  b.len <- b.len + 1

let ibuf_contents b = Array.sub b.arr 0 b.len

(* The two distinct-target arrays are sorted in place, so they must not
   alias the sweep-ordered [call_tgts]/[jmp_tgts] — each gets its own
   [ibuf_contents] copy ([Array.sub] always allocates a fresh array). *)
let finish_indexes ~in_text ~eb ~cs ~cr ~ct ~js ~jt =
  let call_tgts = ibuf_contents ct in
  let in_range_tgts = ibuf_create () in
  Array.iter (fun a -> if in_text a then ibuf_push in_range_tgts a) call_tgts;
  {
    endbrs = ibuf_contents eb;
    call_sites = ibuf_contents cs;
    call_rets = ibuf_contents cr;
    call_tgts;
    call_targets = Linear.sort_dedup_ints (ibuf_contents in_range_tgts);
    jmp_sites = ibuf_contents js;
    jmp_tgts = ibuf_contents jt;
    jmp_targets = Linear.sort_dedup_ints (ibuf_contents jt);
  }

(* One pass over the instruction stream harvests every index FunSeeker and
   the baselines consume: E (end-branches), the call sites/returns/targets
   triple, and the in-range unconditional-jump refs. *)
let indexes_of_sweep (sw : Linear.t) =
  if Cet_telemetry.Registry.enabled () then
    Cet_telemetry.Registry.count "substrate.index_builds";
  let want_endbr =
    match sw.Linear.arch with Arch.X64 -> Decoder.Endbr64 | Arch.X86 -> Decoder.Endbr32
  in
  let eb = ibuf_create () in
  let cs = ibuf_create () and cr = ibuf_create () and ct = ibuf_create () in
  let js = ibuf_create () and jt = ibuf_create () in
  Array.iter
    (fun (i : Decoder.ins) ->
      match i.kind with
      | Decoder.Call_direct target ->
        ibuf_push cs i.addr;
        ibuf_push cr (i.addr + i.len);
        ibuf_push ct target
      | Decoder.Jmp_direct target when Linear.in_range sw target ->
        ibuf_push js i.addr;
        ibuf_push jt target
      | k -> if k = want_endbr then ibuf_push eb i.addr)
    sw.Linear.insns;
  finish_indexes ~in_text:(Linear.in_range sw) ~eb ~cs ~cr ~ct ~js ~jt

(* ---- Stream-free scan ------------------------------------------------ *)

(* The stream-free scan: the same instruction walk as the sweeps, but
   classification lands directly in the index buffers — no [Decoder.ins]
   records, no instruction array.  FunSeeker's analysis consumes only the
   indexes plus {!facts}, so its DISASSEMBLE phase runs through here and
   never materialises the stream the baselines need.  Every decoded
   instruction is harvested on its int tag (three compares); the anchored
   walk takes its resynchronisation jumps from the SWAR anchor array.
   Differential tests pin [scan_section] to [indexes_of_sweep]-over-the-
   sweep equality on the corpus and on random bytes. *)

let scan_deadline_mask = 4095

let scan_section arch ~anchored rd (sec : Reader.section) =
  if Cet_telemetry.Registry.enabled () then
    Cet_telemetry.Registry.count "substrate.index_builds";
  let buf, pos, len = Reader.section_view rd sec in
  let vaddr = sec.Reader.vaddr in
  let limit = pos + len in
  let base = vaddr - pos in
  let in_range target = target >= vaddr && target < vaddr + len in
  let want_endbr =
    match arch with Arch.X64 -> Decoder.tag_endbr64 | Arch.X86 -> Decoder.tag_endbr32
  in
  let eb = ibuf_create () in
  let cs = ibuf_create () and cr = ibuf_create () and ct = ibuf_create () in
  let js = ibuf_create () and jt = ibuf_create () in
  let s = Decoder.scratch () in
  let errors = ref 0 in
  let insns = ref 0 in
  let off = ref pos in
  let tick = ref 0 in
  let harvest () =
    let tag = Decoder.scratch_tag s in
    if tag = Decoder.tag_call_direct then begin
      let addr = Decoder.scratch_addr s in
      ibuf_push cs addr;
      ibuf_push cr (addr + Decoder.scratch_len s);
      ibuf_push ct (Decoder.scratch_target s)
    end
    else if tag = Decoder.tag_jmp_direct then begin
      let target = Decoder.scratch_target s in
      if in_range target then begin
        ibuf_push js (Decoder.scratch_addr s);
        ibuf_push jt target
      end
    end
    else if tag = want_endbr then ibuf_push eb (Decoder.scratch_addr s)
  in
  if not anchored then begin
    let desynced = ref false in
    while !off < limit do
      incr tick;
      if !tick land scan_deadline_mask = 0 then Cet_util.Deadline.check "disasm.scan";
      if Decoder.scan arch s buf ~limit ~base ~off:!off then begin
        desynced := false;
        incr insns;
        harvest ();
        off := !off + Decoder.scratch_len s
      end
      else begin
        if not !desynced then incr errors;
        desynced := true;
        incr off
      end
    done
  end
  else begin
    (* Mirror of [Linear.sweep_anchored_impl]: untrusted runs jump straight
       to the next end-branch anchor (payload-relative offsets from the
       SWAR scan), harvesting nothing from them. *)
    let anchors = Prescan.anchor_offsets arch sec.Reader.data in
    let nanchors = Array.length anchors in
    let anchor_lower_bound rel =
      let lo = ref 0 and hi = ref nanchors in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if anchors.(mid) < rel then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let next_anchor_or_end rel =
      let i = anchor_lower_bound (rel + 1) in
      if i < nanchors then anchors.(i) else len
    in
    while !off < limit do
      incr tick;
      if !tick land scan_deadline_mask = 0 then
        Cet_util.Deadline.check "disasm.scan_anchored";
      if Decoder.scan arch s buf ~limit ~base ~off:!off then begin
        let stop = !off + Decoder.scratch_len s in
        let a = pos + next_anchor_or_end (!off - pos) in
        if a < stop then begin
          incr errors;
          off := a
        end
        else begin
          incr insns;
          harvest ();
          off := stop
        end
      end
      else begin
        incr errors;
        off := pos + next_anchor_or_end (!off - pos)
      end
    done
  end;
  ( finish_indexes ~in_text:in_range ~eb ~cs ~cr ~ct ~js ~jt,
    { f_base = vaddr; f_size = len; f_resync_errors = !errors; f_insns = !insns } )

let scan_section arch ~anchored rd sec =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_
      ~name:(if anchored then "disasm.scan_anchored" else "disasm.scan")
      (fun () -> scan_section arch ~anchored rd sec)
  else scan_section arch ~anchored rd sec

(* Run the scan for [t], caching both products.  When the full sweep is
   already memoised the index pass over its stream is cheaper than a
   re-decode, so prefer it. *)
let scan ~anchored t =
  match text t with
  | None -> invalid_arg "Substrate.scan: no .text section"
  | Some sec ->
    let ix, fx = scan_section (Reader.arch t.t_reader) ~anchored t.t_reader sec in
    if anchored then begin
      t.t_anchored_idx <- Some ix;
      t.t_anchored_facts <- Some fx
    end
    else begin
      t.t_idx <- Some ix;
      t.t_facts <- Some fx
    end;
    (ix, fx)

let indexes ?(anchored = false) t =
  match if anchored then t.t_anchored_idx else t.t_idx with
  | Some ix -> ix
  | None -> (
    match if anchored then t.t_anchored else t.t_sweep with
    | Some sw ->
      let ix = indexes_of_sweep sw in
      if anchored then t.t_anchored_idx <- Some ix else t.t_idx <- Some ix;
      ix
    | None -> fst (scan ~anchored t))

let facts ?(anchored = false) t =
  match if anchored then t.t_anchored_facts else t.t_facts with
  | Some fx -> fx
  | None -> (
    match if anchored then t.t_anchored else t.t_sweep with
    | Some sw ->
      let fx = facts_of_sweep sw in
      if anchored then t.t_anchored_facts <- Some fx else t.t_facts <- Some fx;
      fx
    | None -> snd (scan ~anchored t))

(* ---- Exception-table facts ------------------------------------------ *)

(* Every decoder below runs through its [_result] form, so corrupt
   entries are skipped, never raised through the analysis; a substrate
   built by {!of_bytes_diag} also reports what was skipped. *)

let report t d = Option.iter (fun c -> Diag.Collector.add c d) t.t_diag

let fde_frames t =
  match t.t_frames with
  | Some fs -> fs
  | None ->
    let fs =
      match Reader.find_section t.t_reader ".eh_frame" with
      | None -> []
      | Some s ->
        (* A corrupt walk keeps the salvageable prefix of frames. *)
        let fs, ds = Cet_eh.Eh_frame.decode_result ~vaddr:s.vaddr s.data in
        List.iter (report t) ds;
        fs
    in
    t.t_frames <- Some fs;
    fs

let fde_starts t =
  match t.t_fde_starts with
  | Some ss -> ss
  | None ->
    (* The sorted [.eh_frame_hdr] search table is the cheap source real
       tools consult first; fall back to walking [.eh_frame] records when
       it is missing or corrupt (truncated tables included — the header
       can be intact while the entries are cut short). *)
    let from_frames () =
      List.map (fun (f : Cet_eh.Eh_frame.frame) -> f.pc_begin) (fde_frames t)
      |> List.sort_uniq Int.compare
    in
    let ss =
      match Reader.find_section t.t_reader ".eh_frame_hdr" with
      | Some s -> (
        match Cet_eh.Eh_frame_hdr.decode_result ~vaddr:s.vaddr s.data with
        | Ok entries ->
          List.map (fun (e : Cet_eh.Eh_frame_hdr.entry) -> e.initial_loc) entries
          |> List.sort_uniq Int.compare
        | Error _ -> from_frames ())
      | None -> from_frames ()
    in
    t.t_fde_starts <- Some ss;
    ss

let compare_extent (a_lo, a_hi) (b_lo, b_hi) =
  if a_lo <> b_lo then Int.compare a_lo b_lo else Int.compare a_hi b_hi

let fde_extents t =
  match t.t_fde_extents with
  | Some es -> es
  | None ->
    let es =
      List.map
        (fun (f : Cet_eh.Eh_frame.frame) -> (f.pc_begin, f.pc_begin + f.pc_range))
        (fde_frames t)
      |> List.sort_uniq compare_extent
    in
    t.t_fde_extents <- Some es;
    es

let landing_pads t =
  match t.t_pads with
  | Some ps -> ps
  | None ->
    let ps =
      match Reader.find_section t.t_reader ".gcc_except_table" with
      | None -> [||]
      | Some get ->
        let frames = fde_frames t in
        let pads = ibuf_create () in
        (* An out-of-range or corrupt LSDA (a truncated one whose header
           starts in bounds included) is skipped on its own: the pads of
           every healthy record are kept. *)
        let skipped = ref 0 and first_err = ref "" in
        let skip msg =
          if !skipped = 0 then first_err := msg;
          incr skipped
        in
        List.iter
          (fun (f : Cet_eh.Eh_frame.frame) ->
            match f.lsda with
            | None -> ()
            | Some lsda_vaddr -> (
              let off = lsda_vaddr - get.vaddr in
              if off < 0 || off >= String.length get.data then
                skip (Printf.sprintf "LSDA vaddr 0x%x outside .gcc_except_table" lsda_vaddr)
              else
                match Cet_eh.Lsda.decode_result get.data ~off with
                | Ok lsda ->
                  List.iter (ibuf_push pads)
                    (Cet_eh.Lsda.landing_pads lsda ~func_start:f.pc_begin)
                | Error d -> skip (Diag.to_string d)))
          frames;
        if !skipped > 0 then begin
          let refs =
            List.length (List.filter (fun (f : Cet_eh.Eh_frame.frame) -> f.lsda <> None) frames)
          in
          report t
            (Diag.makef ~domain:"core" ~code:"lsda-skipped"
               "%d of %d LSDA references unusable, first: %s" !skipped refs !first_err)
        end;
        Linear.sort_dedup_ints (ibuf_contents pads)
    in
    t.t_pads <- Some ps;
    ps
