module Reader = Cet_elf.Reader
module Diag = Cet_util.Diag
module Ibuf = Cet_util.Ibuf
module Decoder = Cet_x86.Decoder

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

let in_text fx addr = addr >= fx.f_base && addr < fx.f_base + fx.f_size
let text_end fx = fx.f_base + fx.f_size

(* ---- The walk: indexes, facts and the stream ----------------------- *)

(* The two distinct-target arrays are sorted in place, so they must not
   alias the walk-ordered [call_tgts]/[jmp_tgts] — each gets its own
   [Ibuf.contents] copy (which always allocates a fresh array). *)
let finish_indexes ~in_text (h : Decoder.harvest) =
  let call_tgts = Ibuf.contents h.ct in
  let in_range_tgts = Ibuf.create () in
  Array.iter (fun a -> if in_text a then Ibuf.push in_range_tgts a) call_tgts;
  {
    endbrs = Ibuf.contents h.eb;
    call_sites = Ibuf.contents h.cs;
    call_rets = Ibuf.contents h.cr;
    call_tgts;
    call_targets = Linear.sort_dedup_ints (Ibuf.contents in_range_tgts);
    jmp_sites = Ibuf.contents h.js;
    jmp_tgts = Ibuf.contents h.jt;
    jmp_targets = Linear.sort_dedup_ints (Ibuf.contents h.jt);
  }

let memo_indexes ~anchored t ix fx =
  if anchored then begin
    t.t_anchored_idx <- Some ix;
    t.t_anchored_facts <- Some fx
  end
  else begin
    t.t_idx <- Some ix;
    t.t_facts <- Some fx
  end

let text_or_fail what t =
  match text t with None -> invalid_arg (what ^ ": no .text section") | Some sec -> sec

(* One {!Decoder.walk} over [.text] ([sec]).  Whatever it harvests — the
   index buffers unless the indexes are memoised already — is finished
   and memoised alongside the facts, so a sweep also answers {!indexes}
   and {!facts}.  The walk decodes out of the file image in place
   ({!Reader.section_view}); anchors and the stream's [code] are the
   section's own bytes.  Only the plain walk keeps a stream: the anchored
   one fills its indexes and facts alone. *)
let walk ~anchored ~phase ~stream t sec =
  let arch = Reader.arch t.t_reader in
  let buf, pos, len = Reader.section_view t.t_reader sec in
  let vaddr = sec.Reader.vaddr in
  let known = if anchored then t.t_anchored_facts else t.t_facts in
  let harvest = match known with None -> Some (Decoder.harvest ()) | Some _ -> None in
  let anchors = if anchored then Some (Prescan.anchor_offsets arch sec.Reader.data) else None in
  let w = Decoder.walk arch ~phase ~anchors buf ~pos ~len ~vaddr ~stream ~harvest in
  Option.iter
    (fun h ->
      if Cet_telemetry.Registry.enabled () then
        Cet_telemetry.Registry.count "substrate.index_builds";
      let in_text target = target >= vaddr && target < vaddr + len in
      memo_indexes ~anchored t (finish_indexes ~in_text h)
        { f_base = vaddr; f_size = len; f_resync_errors = w.resync_errors; f_insns = w.insns })
    harvest;
  w

(* The stream-free scan: the indexes and facts FunSeeker's analysis
   consumes, with no instruction stream at all — its DISASSEMBLE phase
   runs through here.  Differential tests pin it to the sweep's products
   on the corpus and on random bytes. *)
let scan ~anchored t =
  let sec = text_or_fail "Substrate.scan" t in
  let phase = if anchored then "disasm.scan_anchored" else "disasm.scan" in
  let run () = ignore (walk ~anchored ~phase ~stream:false t sec : Decoder.walked) in
  if Cet_telemetry.Span.enabled () then Cet_telemetry.Span.with_ ~name:phase run else run ()

(* The stream, plus the indexes and facts in the same pass unless the
   scan has run. *)
let sweep t =
  match t.t_sweep with
  | Some s -> s
  | None ->
    let sec = text_or_fail "Substrate.sweep" t in
    let run () =
      let w = walk ~anchored:false ~phase:"disasm.sweep" ~stream:true t sec in
      Linear.of_stream (Reader.arch t.t_reader) ~base:sec.Reader.vaddr ~code:sec.Reader.data
        (Option.get w.stream) ~resync_errors:w.resync_errors
    in
    let s =
      if Cet_telemetry.Span.enabled () then Cet_telemetry.Span.with_ ~name:"disasm.sweep" run
      else run ()
    in
    t.t_sweep <- Some s;
    s

let indexes ?(anchored = false) t =
  match if anchored then t.t_anchored_idx else t.t_idx with
  | Some ix -> ix
  | None ->
    scan ~anchored t;
    Option.get (if anchored then t.t_anchored_idx else t.t_idx)

let facts ?(anchored = false) t =
  match if anchored then t.t_anchored_facts else t.t_facts with
  | Some fx -> fx
  | None ->
    scan ~anchored t;
    Option.get (if anchored then t.t_anchored_facts else t.t_facts)

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
        let pads = Ibuf.create () in
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
                  List.iter (Ibuf.push pads)
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
        Linear.sort_dedup_ints (Ibuf.contents pads)
    in
    t.t_pads <- Some ps;
    ps
