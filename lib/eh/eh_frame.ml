module W = Cet_util.Bytesio.W
module R = Cet_util.Bytesio.R

type frame = { pc_begin : int; pc_range : int; lsda : int option }

let fde_enc = Pointer_enc.pcrel_sdata4
let lsda_enc = Pointer_enc.pcrel_sdata4
let pers_enc = Pointer_enc.pcrel_sdata4

(* Append a length-prefixed record whose body is produced by [emit], which
   receives the body writer and the vaddr of the body's first byte.  Bodies
   are padded to 4-byte alignment with DW_CFA_nop (0x00). *)
let record out ~vaddr emit =
  let start = W.length out in
  let body = W.create ~size:64 () in
  emit body (vaddr + start + 4);
  W.align body 4;
  W.u32 out (W.length body);
  W.bytes out (W.contents body)

let cie_plain out ~vaddr =
  let off = W.length out in
  record out ~vaddr (fun b _addr ->
      W.u32 b 0 (* CIE id *);
      W.u8 b 1 (* version *);
      W.bytes b "zR\000";
      W.uleb b 1 (* code alignment *);
      W.sleb b (-8) (* data alignment *);
      W.uleb b 16 (* return-address register *);
      W.uleb b 1 (* augmentation data length *);
      W.u8 b fde_enc;
      (* minimal initial CFI: def_cfa rsp+8 *)
      W.u8 b 0x0c;
      W.uleb b 7;
      W.uleb b 8);
  off

let cie_lsda out ~vaddr ~personality =
  let off = W.length out in
  record out ~vaddr (fun b body_addr ->
      W.u32 b 0;
      W.u8 b 1;
      W.bytes b "zPLR\000";
      W.uleb b 1;
      W.sleb b (-8);
      W.uleb b 16;
      W.uleb b 6 (* aug data: enc byte + 4-byte personality + 2 enc bytes *);
      W.u8 b pers_enc;
      Pointer_enc.write b ~enc:pers_enc ~field_addr:(body_addr + W.length b) ~value:personality;
      W.u8 b lsda_enc;
      W.u8 b fde_enc;
      W.u8 b 0x0c;
      W.uleb b 7;
      W.uleb b 8);
  off

let fde out ~vaddr ~cie_off (f : frame) =
  record out ~vaddr (fun b body_addr ->
      let here () = body_addr + W.length b in
      (* CIE pointer: distance from this field back to the CIE. *)
      W.u32 b (W.length out + 4 - cie_off);
      Pointer_enc.write b ~enc:fde_enc ~field_addr:(here ()) ~value:f.pc_begin;
      W.u32 b f.pc_range;
      (match f.lsda with
      | None -> W.uleb b 0
      | Some l ->
        W.uleb b 4;
        Pointer_enc.write b ~enc:lsda_enc ~field_addr:(here ()) ~value:l))

let encode_with_offsets ~vaddr ~personality frames =
  let out = W.create ~size:4096 () in
  let offsets = ref [] in
  let plain = List.filter (fun f -> f.lsda = None) frames in
  let with_lsda = List.filter (fun f -> f.lsda <> None) frames in
  let emit_fde cie_off f =
    offsets := (f.pc_begin, W.length out) :: !offsets;
    fde out ~vaddr ~cie_off f
  in
  if plain <> [] then begin
    let cie_off = cie_plain out ~vaddr in
    List.iter (emit_fde cie_off) plain
  end;
  if with_lsda <> [] then begin
    let cie_off = cie_lsda out ~vaddr ~personality in
    List.iter (emit_fde cie_off) with_lsda
  end;
  W.u32 out 0 (* terminator *);
  (W.contents out, List.rev !offsets)

let encode ~vaddr ~personality frames =
  fst (encode_with_offsets ~vaddr ~personality frames)

(* No field's width depends on its value, so one record of each kind,
   encoded once, measures them all. *)
let measure emit =
  let w = W.create ~size:64 () in
  emit w;
  W.length w

let cie_plain_size = measure (fun w -> ignore (cie_plain w ~vaddr:0))
let cie_lsda_size = measure (fun w -> ignore (cie_lsda w ~vaddr:0 ~personality:0))
let fde_size lsda = measure (fun w -> fde w ~vaddr:0 ~cie_off:0 { pc_begin = 0; pc_range = 0; lsda })
let fde_plain_size = fde_size None
let fde_lsda_size = fde_size (Some 0)

let size frames =
  let with_lsda = List.length (List.filter (fun f -> f.lsda <> None) frames) in
  let plain = List.length frames - with_lsda in
  (if plain > 0 then cie_plain_size + (plain * fde_plain_size) else 0)
  + (if with_lsda > 0 then cie_lsda_size + (with_lsda * fde_lsda_size) else 0)
  + 4 (* the terminator *)

type cie_info = { c_fde_enc : int; c_lsda_enc : int option; c_aug_z : bool }

let decode_impl ~lenient ~diag ~vaddr data =
  let len = String.length data in
  let cies = Hashtbl.create 4 in
  let frames = ref [] in
  let pos = ref 0 in
  (try
     while !pos + 4 <= len do
       let r = R.sub data ~pos:!pos ~len:(len - !pos) in
       let record_len = R.u32 r in
       if record_len = 0 then raise Exit;
       if record_len = 0xffffffff then
         invalid_arg "Eh_frame.decode: 64-bit records unsupported";
       let body_start = !pos + 4 in
       let body = R.sub data ~pos:body_start ~len:record_len in
       let id_field_off = body_start in
       let id = R.u32 body in
       if id = 0 then begin
         (* CIE *)
         let version = R.u8 body in
         if version <> 1 && version <> 3 then invalid_arg "Eh_frame.decode: CIE version";
         let aug = Buffer.create 8 in
         let rec aug_loop () =
           let c = R.u8 body in
           if c <> 0 then begin
             Buffer.add_char aug (Char.chr c);
             aug_loop ()
           end
         in
         aug_loop ();
         let aug = Buffer.contents aug in
         ignore (R.uleb body) (* code align *);
         ignore (R.sleb body) (* data align *);
         ignore (R.uleb body) (* return reg *);
         let info = ref { c_fde_enc = Pointer_enc.absptr8; c_lsda_enc = None; c_aug_z = false } in
         if String.length aug > 0 && aug.[0] = 'z' then begin
           let _auglen = R.uleb body in
           info := { !info with c_aug_z = true };
           String.iter
             (fun ch ->
               match ch with
               | 'z' -> ()
               | 'R' -> info := { !info with c_fde_enc = R.u8 body }
               | 'L' -> info := { !info with c_lsda_enc = Some (R.u8 body) }
               | 'P' ->
                 let enc = R.u8 body in
                 ignore
                   (Pointer_enc.read body ~enc
                      ~field_addr:(vaddr + body_start + R.pos body))
               | 'S' -> ()
               | c -> invalid_arg (Printf.sprintf "Eh_frame.decode: augmentation %c" c))
             aug
         end;
         Hashtbl.replace cies !pos !info
       end
       else begin
         (* FDE: id is the distance from its own field back to the CIE. *)
         let cie_off = id_field_off - id in
         match Hashtbl.find_opt cies cie_off with
         | None -> invalid_arg "Eh_frame.decode: FDE references unknown CIE"
         | Some cie ->
           let pc_begin =
             Pointer_enc.read body ~enc:cie.c_fde_enc
               ~field_addr:(vaddr + body_start + R.pos body)
           in
           let pc_range =
             match Pointer_enc.size cie.c_fde_enc with
             | Some 8 -> R.u64 body
             | _ -> R.u32 body
           in
           let lsda =
             if cie.c_aug_z then begin
               let auglen = R.uleb body in
               match cie.c_lsda_enc with
               | Some enc when auglen > 0 ->
                 Some
                   (Pointer_enc.read body ~enc
                      ~field_addr:(vaddr + body_start + R.pos body))
               | _ -> None
             end
             else None
           in
           frames := { pc_begin; pc_range; lsda } :: !frames
       end;
       pos := body_start + record_len
     done
   with
  | Exit -> ()
  | (Invalid_argument _ | R.Out_of_bounds _) as e ->
    (* Lenient mode salvages every record before the corrupt one. *)
    if not lenient then raise e
    else
      Cet_util.Diag.Collector.addf diag ~domain:"eh" ~code:"eh-frame"
        ".eh_frame walk stopped at byte %d of %d: %s (%d frames salvaged)" !pos
        len (Printexc.to_string e) (List.length !frames));
  List.rev !frames

let decode ~vaddr data =
  decode_impl ~lenient:false ~diag:(Cet_util.Diag.Collector.create ()) ~vaddr data

let decode_result ~vaddr data =
  let diag = Cet_util.Diag.Collector.create () in
  let frames = decode_impl ~lenient:true ~diag ~vaddr data in
  (frames, Cet_util.Diag.Collector.list diag)
