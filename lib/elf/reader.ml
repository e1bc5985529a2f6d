module R = Cet_util.Bytesio.R
module Arch = Cet_x86.Arch

type section = {
  name : string;
  sh_type : int;
  flags : int;
  vaddr : int;
  size : int;
  entsize : int;
  addralign : int;
  data : string;
  file_off : int;
}

type t = {
  arch : Arch.t;
  machine : int;
  pie : bool;
  entry : int;
  sections : section list;
  image : string;
}

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let cstring data off =
  match String.index_from_opt data off '\000' with
  | Some stop -> String.sub data off (stop - off)
  | None -> fail "unterminated string at %d" off

(* Sections larger than this are not analysis inputs but resource attacks
   (every legitimate corpus image is a few hundred KiB); the lenient
   parser refuses their payload with a resource-limit diagnostic. *)
let section_size_cap = 1 lsl 28

(* [in_bounds len off size]: does [off, off+size) fit a [len]-byte file?
   Written without the addition so a declared 2^61-scale offset/size pair
   cannot wrap past [max_int] and slip through (the satellite overflow
   class). *)
let in_bounds len off size = off >= 0 && size >= 0 && size <= len && off <= len - size

(* One parser, two strictness modes.  [lenient = false] reproduces the
   historical contract: raise {!Malformed} on anything structurally off.
   [lenient = true] (the analysis path, via {!read_diag}) degrades
   instead wherever a partial result is still meaningful — truncated
   section header tables are salvaged up to the last full entry,
   unresolvable names become [""], out-of-range section payloads are
   clamped to the bytes present — each with a diagnostic.  Failures that
   leave nothing to analyze (bad magic, unreadable fixed header, no
   usable section headers) raise in both modes. *)
let read_impl ~lenient ~diag bytes =
  let soft ?severity ~code fmt =
    Printf.ksprintf
      (fun msg -> Cet_util.Diag.Collector.add diag
          (Cet_util.Diag.make ?severity ~domain:"elf" ~code msg))
      fmt
  in
  let len = String.length bytes in
  if len < 52 then fail "file too short";
  if String.sub bytes 0 4 <> "\x7fELF" then fail "bad magic";
  let cls = Char.code bytes.[4] in
  let arch =
    if cls = Consts.elfclass64 then Arch.X64
    else if cls = Consts.elfclass32 then Arch.X86
    else fail "bad class %d" cls
  in
  if Char.code bytes.[5] <> Consts.elfdata2lsb then fail "not little-endian";
  let is64 = arch = Arch.X64 in
  let r = R.of_string bytes in
  R.seek r 16;
  let e_type = R.u16 r in
  let machine = R.u16 r in
  if is64 && machine <> Consts.em_x86_64 && machine <> Consts.em_aarch64 then
    fail "machine/class mismatch";
  if (not is64) && machine <> Consts.em_386 then fail "machine/class mismatch";
  ignore (R.u32 r) (* version *);
  let addr () = if is64 then R.u64 r else R.u32 r in
  let entry = addr () in
  let _phoff = addr () in
  let shoff = addr () in
  ignore (R.u32 r) (* flags *);
  ignore (R.u16 r) (* ehsize *);
  ignore (R.u16 r) (* phentsize *);
  ignore (R.u16 r) (* phnum *);
  let shentsize = R.u16 r in
  let shnum = R.u16 r in
  let shstrndx = R.u16 r in
  if shnum = 0 then fail "no sections";
  let shentsize =
    let standard = if is64 then 64 else 40 in
    if shentsize >= standard && shentsize <= 4096 then shentsize
    else if not lenient then shentsize (* strict: let the walk fail as before *)
    else begin
      soft ~code:"shentsize" "implausible e_shentsize %d; assuming %d" shentsize
        standard;
      standard
    end
  in
  let read_shdr i =
    R.seek r (shoff + (i * shentsize));
    let name_off = R.u32 r in
    let sh_type = R.u32 r in
    let flags = addr () in
    let vaddr = addr () in
    let offset = addr () in
    let size = addr () in
    ignore (R.u32 r) (* link *);
    ignore (R.u32 r) (* info *);
    let addralign = addr () in
    let entsize = addr () in
    (name_off, sh_type, flags, vaddr, offset, size, entsize, addralign)
  in
  let raw =
    if not lenient then List.init shnum read_shdr
    else begin
      (* Salvage the prefix of the table that is actually present. *)
      let out = ref [] in
      (try
         for i = 0 to shnum - 1 do
           out := read_shdr i :: !out
         done
       with R.Out_of_bounds _ | Invalid_argument _ ->
         soft ~code:"shdr-truncated"
           "section header table truncated: %d of %d entries readable"
           (List.length !out) shnum);
      List.rev !out
    end
  in
  if lenient && raw = [] then fail "no readable section headers";
  let shstr =
    match List.nth_opt raw shstrndx with
    | Some (_, _, _, _, str_off, str_size, _, _)
      when in_bounds len str_off str_size ->
      String.sub bytes str_off str_size
    | _ when not lenient -> fail "bad shstrndx"
    | _ ->
      soft ~code:"shstrtab" "unusable section name table (index %d)" shstrndx;
      ""
  in
  let sections =
    List.filteri (fun i _ -> i > 0) raw
    |> List.map (fun (name_off, sh_type, flags, vaddr, offset, size, entsize, addralign) ->
           let name =
             if not lenient then cstring shstr name_off
             else if name_off >= String.length shstr then ""
             else
               match String.index_from_opt shstr name_off '\000' with
               | Some stop -> String.sub shstr name_off (stop - name_off)
               | None -> ""
           in
           (* [file_off] records where the payload lives in the raw image
              (zero-copy consumers read it there); -1 when there is no
              backing slice (SHT_NOBITS, dropped payloads). *)
           let data, size, file_off =
             if sh_type = Consts.sht_nobits then ("", size, -1)
             else if in_bounds len offset size then
               if lenient && size > section_size_cap then begin
                 soft ~severity:Cet_util.Diag.Error ~code:"resource-limit"
                   "section %S: %d bytes exceeds the %d-byte cap; payload dropped"
                   name size section_size_cap;
                 ("", 0, -1)
               end
               else (String.sub bytes offset size, size, offset)
             else if not lenient then fail "section overflow"
             else begin
               (* Clamp to the bytes that exist. *)
               let off' = min (max offset 0) len in
               let avail = len - off' in
               let kept = min (max size 0) avail in
               soft ~code:"section-clamp"
                 "section %S: declared [%d, +%d) exceeds the %d-byte file; kept %d bytes"
                 name offset size len kept;
               (String.sub bytes off' kept, kept, off')
             end
           in
           { name; sh_type; flags; vaddr; size; entsize; addralign; data; file_off })
  in
  { arch; machine; pie = e_type = Consts.et_dyn; entry; sections; image = bytes }

let read_exn bytes =
  read_impl ~lenient:false ~diag:(Cet_util.Diag.Collector.create ()) bytes

let read_guarded bytes =
  try read_exn bytes with
  | Malformed _ as e -> raise e
  | Cet_util.Bytesio.R.Out_of_bounds what -> fail "truncated structure (%s)" what
  | Invalid_argument what -> fail "malformed structure (%s)" what

(* The front half of PARSE; span-guarded so a disabled registry costs two
   branch checks and no closure allocation. *)
let read bytes =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"elf.read" (fun () -> read_guarded bytes)
  else read_guarded bytes

let read_diag_impl bytes =
  let diag = Cet_util.Diag.Collector.create () in
  match read_impl ~lenient:true ~diag bytes with
  | t -> Ok (t, Cet_util.Diag.Collector.list diag)
  | exception Malformed msg ->
    Error (Cet_util.Diag.error ~domain:"elf" ~code:"malformed" msg)
  | exception R.Out_of_bounds what ->
    Error
      (Cet_util.Diag.makef ~severity:Cet_util.Diag.Error ~domain:"elf"
         ~code:"truncated" "truncated structure (%s)" what)
  | exception Invalid_argument what ->
    Error
      (Cet_util.Diag.makef ~severity:Cet_util.Diag.Error ~domain:"elf"
         ~code:"malformed" "malformed structure (%s)" what)

let read_diag bytes =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"elf.read" (fun () -> read_diag_impl bytes)
  else read_diag_impl bytes

let arch t = t.arch
let machine t = t.machine
let pie t = t.pie
let entry t = t.entry
let sections t = t.sections
let find_section t name = List.find_opt (fun s -> s.name = name) t.sections

(* Zero-copy payload access: the (string, pos, len) triple locating the
   section's bytes without the [data] sub-string.  Falls back to [data]
   itself when the payload has no backing slice in the image. *)
let section_view t s =
  if s.file_off >= 0 then (t.image, s.file_off, String.length s.data)
  else (s.data, 0, String.length s.data)

let parse_symtab t ~symtab ~strtab =
  match (find_section t symtab, find_section t strtab) with
  | Some sym, Some str ->
    let is64 = t.arch = Arch.X64 in
    let esize = if is64 then 24 else 16 in
    if String.length sym.data mod esize <> 0 then fail "ragged symtab";
    let count = String.length sym.data / esize in
    let r = R.of_string sym.data in
    let sec_name shndx =
      if shndx = Consts.shn_undef || shndx >= 0xff00 then None
      else
        match List.nth_opt t.sections (shndx - 1) with
        | Some s -> Some s.name
        | None -> None
    in
    List.init count (fun i ->
        R.seek r (i * esize);
        let name_off = R.u32 r in
        let value, size, info, shndx =
          if is64 then begin
            let info = R.u8 r in
            ignore (R.u8 r);
            let shndx = R.u16 r in
            let value = R.u64 r in
            let size = R.u64 r in
            (value, size, info, shndx)
          end
          else begin
            let value = R.u32 r in
            let size = R.u32 r in
            let info = R.u8 r in
            ignore (R.u8 r);
            let shndx = R.u16 r in
            (value, size, info, shndx)
          end
        in
        let kind =
          match Symbol.kind_of_code (info land 0xf) with
          | Some k -> k
          | None -> Symbol.Notype
        in
        let bind =
          match Symbol.bind_of_code (info lsr 4) with
          | Some b -> b
          | None -> Symbol.Global
        in
        {
          Symbol.name = cstring str.data name_off;
          value;
          size;
          kind;
          bind;
          section = sec_name shndx;
        })
  | _ -> []

let symbols t =
  match parse_symtab t ~symtab:".symtab" ~strtab:".strtab" with
  | [] -> []
  | _null :: rest -> rest
  | exception Malformed _ -> []

let dyn_symbols t = Array.of_list (parse_symtab t ~symtab:".dynsym" ~strtab:".dynstr")

let plt_relocs t =
  let dynsyms = dyn_symbols t in
  let of_section name rela =
    match find_section t name with
    | None -> []
    | Some s ->
      let is64 = t.arch = Arch.X64 in
      let esize = if is64 then (if rela then 24 else 16) else if rela then 12 else 8 in
      let count = String.length s.data / esize in
      let r = R.of_string s.data in
      List.init count (fun i ->
          R.seek r (i * esize);
          let offset = if is64 then R.u64 r else R.u32 r in
          let info = if is64 then R.u64 r else R.u32 r in
          let sym = if is64 then info lsr 32 else info lsr 8 in
          let name =
            if sym < Array.length dynsyms then dynsyms.(sym).Symbol.name
            else fail "reloc sym out of range"
          in
          (offset, name))
  in
  match t.arch with
  | Arch.X64 -> of_section ".rela.plt" true
  | Arch.X86 -> of_section ".rel.plt" false

let cet_enabled t =
  match find_section t ".note.gnu.property" with
  | None -> false
  | Some s -> (
    try
      let r = R.of_string s.data in
      let namesz = R.u32 r in
      let _descsz = R.u32 r in
      let ntype = R.u32 r in
      let name = R.bytes r namesz in
      if ntype <> Consts.nt_gnu_property_type_0 || name <> "GNU\000" then false
      else begin
        let pr_type = R.u32 r in
        let _datasz = R.u32 r in
        let data = R.u32 r in
        pr_type = Consts.gnu_property_x86_feature_1_and
        && data land Consts.gnu_property_x86_feature_1_ibt <> 0
      end
    with R.Out_of_bounds _ -> false)
