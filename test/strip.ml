(* strip(1), test-side: parse an ELF file and write it back without its
   static symbol table, keeping everything the loader (and FunSeeker)
   needs — notably [.gcc_except_table], which the paper stresses cannot
   be stripped.  No tool strips a file it read: the corpus build strips
   the image it links ([Writer.write ~strip:true]).  The tests use this
   to strip a compiled binary after the fact. *)

module Reader = Cet_elf.Reader
module Image = Cet_elf.Image

(* The writer regenerates these from the image's symbols, relocations
   and flags, so they are not copied as payload. *)
let derived_sections =
  [
    ".note.gnu.property";
    ".dynsym";
    ".dynstr";
    ".rel.plt";
    ".rela.plt";
    ".symtab";
    ".strtab";
    ".shstrtab";
  ]

(* A writable image of what the reader parsed. *)
let to_image t =
  let machine = Reader.machine t in
  {
    Image.arch = Reader.arch t;
    machine =
      (if machine = Cet_elf.Consts.em_x86_64 || machine = Cet_elf.Consts.em_386 then None
       else Some machine);
    pie = Reader.pie t;
    cet_note = Reader.find_section t ".note.gnu.property" <> None;
    entry = Reader.entry t;
    sections =
      List.filter_map
        (fun (s : Reader.section) ->
          if List.mem s.name derived_sections then None
          else
            Some
              {
                Image.name = s.name;
                sh_type = s.sh_type;
                flags = s.flags;
                vaddr = s.vaddr;
                addralign = s.addralign;
                entsize = s.entsize;
                data = s.data;
              })
        (Reader.sections t);
    symbols = Reader.symbols t;
    dynsyms =
      (match Array.to_list (Reader.dyn_symbols t) with [] -> [] | _null :: rest -> rest);
    plt_relocs = Reader.plt_relocs t;
  }

let strip bytes = Cet_elf.Writer.write ~strip:true (to_image (Reader.read bytes))
