(** Minimal DWARF debugging information: one compile unit with a
    [DW_TAG_subprogram] DIE per function, carrying name / low_pc / high_pc /
    external — the information the paper's ground-truth extraction reads
    ("We obtain the ground truth about function entry addresses by referring
    to the DWARF symbols", §V-A1).

    The encoder produces [.debug_abbrev], [.debug_info] and [.debug_str]
    section contents (DWARF v4, 64-bit addresses for x86-64, 32-bit for
    x86).  No tool reads them back: the corpus is stripped, and its ground
    truth is the compiler's own list.  The tests' reader
    ([test/dwarf_reader.ml]) parses exactly this shape. *)

type subprogram = {
  sp_name : string;
  sp_low_pc : int;
  sp_high_pc : int;  (** exclusive end address *)
  sp_external : bool;
}

type t = {
  cu_name : string;  (** source file name *)
  producer : string;
  subprograms : subprogram list;
}

val encode : ptr_size:int -> t -> string * string * string
(** [(debug_abbrev, debug_info, debug_str)] section contents. *)
