(* The DWARF reader, test-side: no tool reads [.debug_info] (every corpus
   binary is stripped, and ground truth comes from the compiler's own
   list or the symbol table), so the one decoder of
   [Cet_eh.Dwarf_info.encode]'s output lives beside the tests that hold
   the encoder and the symbol-table ground truth against it.  Its DWARF
   v4 constants are written out here, not shared with the encoder. *)

module R = Cet_util.Bytesio.R
module DI = Cet_eh.Dwarf_info

let dw_tag_compile_unit = 0x11
let dw_tag_subprogram = 0x2e
let dw_at_name = 0x03
let dw_at_producer = 0x25
let dw_at_low_pc = 0x11
let dw_at_high_pc = 0x12
let dw_at_external = 0x3f
let dw_form_strp = 0x0e
let dw_form_addr = 0x01
let dw_form_data1 = 0x0b
let dw_form_data8 = 0x07
let dw_form_flag = 0x0c

(* The abbreviation table: code -> (tag, attribute/form pairs). *)
let decode_abbrevs data =
  let r = R.of_string data in
  let tbl = Hashtbl.create 4 in
  let rec attrs acc =
    let a = R.uleb r in
    let f = R.uleb r in
    if a = 0 && f = 0 then List.rev acc else attrs ((a, f) :: acc)
  in
  let rec loop () =
    let code = R.uleb r in
    if code <> 0 then begin
      let tag = R.uleb r in
      ignore (R.u8 r : int) (* has children *);
      Hashtbl.replace tbl code (tag, attrs []);
      loop ()
    end
  in
  loop ();
  tbl

let cstring data off =
  match String.index_from_opt data off '\000' with
  | Some stop -> String.sub data off (stop - off)
  | None -> invalid_arg "Dwarf_reader: unterminated string"

(* The inverse of [DI.encode]; raises [Invalid_argument] on structures
   outside the emitted subset. *)
let decode ~debug_abbrev ~debug_info ~debug_str =
  let abbrevs = decode_abbrevs debug_abbrev in
  let r = R.of_string debug_info in
  let _len = R.u32 r in
  if R.u16 r <> 4 then invalid_arg "Dwarf_reader: version";
  let _abbrev_off = R.u32 r in
  let ptr_size = R.u8 r in
  let read_addr () = if ptr_size = 8 then R.u64 r else R.u32 r in
  let cu_name = ref "" and producer = ref "" and subprograms = ref [] in
  let read_die () =
    let code = R.uleb r in
    code <> 0
    &&
    let tag, attrs =
      match Hashtbl.find_opt abbrevs code with
      | Some x -> x
      | None -> invalid_arg "Dwarf_reader: unknown abbrev"
    in
    let name = ref "" and low = ref 0 and high = ref 0 and ext = ref false in
    List.iter
      (fun (a, f) ->
        if f = dw_form_strp then begin
          let s = cstring debug_str (R.u32 r) in
          if a = dw_at_name then name := s else if a = dw_at_producer then producer := s
        end
        else if f = dw_form_addr then begin
          let v = read_addr () in
          if a = dw_at_low_pc then low := v
        end
        else if f = dw_form_data8 then begin
          let v = R.u64 r in
          if a = dw_at_high_pc then high := v
        end
        else if f = dw_form_data1 then ignore (R.u8 r : int)
        else if f = dw_form_flag then begin
          let v = R.u8 r in
          if a = dw_at_external then ext := v = 1
        end
        else invalid_arg "Dwarf_reader: unsupported form")
      attrs;
    if tag = dw_tag_compile_unit then cu_name := !name
    else if tag = dw_tag_subprogram then
      subprograms :=
        { DI.sp_name = !name; sp_low_pc = !low; sp_high_pc = !high; sp_external = !ext }
        :: !subprograms;
    true
  in
  let rec dies () = if R.pos r < String.length debug_info && read_die () then dies () in
  dies ();
  { DI.cu_name = !cu_name; producer = !producer; subprograms = List.rev !subprograms }

(* The paper's ground-truth source (§V-A1): [DW_TAG_subprogram] DIEs,
   fragment entries excluded.  Empty for a stripped binary, which has no
   debug sections. *)
let ground_truth reader =
  let section name = Cet_elf.Reader.find_section reader name in
  match (section ".debug_abbrev", section ".debug_info", section ".debug_str") with
  | Some ab, Some info, Some str ->
    let d = decode ~debug_abbrev:ab.data ~debug_info:info.data ~debug_str:str.data in
    List.filter_map
      (fun (sp : DI.subprogram) ->
        if Cet_eval.Ground_truth.is_fragment_name sp.sp_name then None
        else Some (sp.sp_name, sp.sp_low_pc))
      d.DI.subprograms
  | _ -> []
