type section = {
  name : string;
  sh_type : int;
  flags : int;
  vaddr : int;
  addralign : int;
  entsize : int;
  data : string;
}

type t = {
  arch : Cet_x86.Arch.t;
  machine : int option;
  pie : bool;
  cet_note : bool;
  entry : int;
  sections : section list;
  symbols : Symbol.t list;
  dynsyms : Symbol.t list;
  plt_relocs : (int * string) list;
}

let section ?(flags = Consts.shf_alloc) ?(addralign = 1) ?(entsize = 0)
    ?(sh_type = Consts.sht_progbits) ~name ~vaddr data =
  { name; sh_type; flags; vaddr; addralign; entsize; data }
