module W = Cet_util.Bytesio.W

type subprogram = {
  sp_name : string;
  sp_low_pc : int;
  sp_high_pc : int;
  sp_external : bool;
}

type t = { cu_name : string; producer : string; subprograms : subprogram list }

(* DWARF constants (v4). *)
let dw_tag_compile_unit = 0x11
let dw_tag_subprogram = 0x2e
let dw_at_name = 0x03
let dw_at_producer = 0x25
let dw_at_language = 0x13
let dw_at_low_pc = 0x11
let dw_at_high_pc = 0x12
let dw_at_external = 0x3f
let dw_form_strp = 0x0e
let dw_form_addr = 0x01
let dw_form_data1 = 0x0b
let dw_form_data8 = 0x07
let dw_form_flag = 0x0c
let dw_lang_c99 = 0x0c

(* Abbreviation codes. *)
let abbrev_cu = 1
let abbrev_sp = 2

let encode_abbrev () =
  let w = W.create () in
  (* compile_unit, has children *)
  W.uleb w abbrev_cu;
  W.uleb w dw_tag_compile_unit;
  W.u8 w 1;
  List.iter
    (fun (a, f) ->
      W.uleb w a;
      W.uleb w f)
    [ (dw_at_name, dw_form_strp); (dw_at_producer, dw_form_strp);
      (dw_at_language, dw_form_data1) ];
  W.uleb w 0;
  W.uleb w 0;
  (* subprogram, no children *)
  W.uleb w abbrev_sp;
  W.uleb w dw_tag_subprogram;
  W.u8 w 0;
  List.iter
    (fun (a, f) ->
      W.uleb w a;
      W.uleb w f)
    [ (dw_at_name, dw_form_strp); (dw_at_low_pc, dw_form_addr);
      (dw_at_high_pc, dw_form_data8); (dw_at_external, dw_form_flag) ];
  W.uleb w 0;
  W.uleb w 0;
  (* terminator *)
  W.uleb w 0;
  W.contents w

let encode ~ptr_size t =
  let abbrev = encode_abbrev () in
  (* String table with offsets. *)
  let str = W.create () in
  let offsets = Hashtbl.create 64 in
  let intern s =
    match Hashtbl.find_opt offsets s with
    | Some o -> o
    | None ->
      let o = W.length str in
      Hashtbl.replace offsets s o;
      W.bytes str s;
      W.u8 str 0;
      o
  in
  let body = W.create () in
  let addr v = if ptr_size = 8 then W.u64 body v else W.u32 body v in
  (* CU DIE *)
  W.uleb body abbrev_cu;
  W.u32 body (intern t.cu_name);
  W.u32 body (intern t.producer);
  W.u8 body dw_lang_c99;
  List.iter
    (fun sp ->
      W.uleb body abbrev_sp;
      W.u32 body (intern sp.sp_name);
      addr sp.sp_low_pc;
      W.u64 body sp.sp_high_pc;
      W.u8 body (if sp.sp_external then 1 else 0))
    t.subprograms;
  W.uleb body 0 (* end of children *);
  let info = W.create () in
  (* unit header: length, version, abbrev offset, address size *)
  W.u32 info (7 + W.length body);
  W.u16 info 4;
  W.u32 info 0;
  W.u8 info ptr_size;
  W.bytes info (W.contents body);
  (abbrev, W.contents info, W.contents str)
