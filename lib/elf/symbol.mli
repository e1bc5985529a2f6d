(** Symbol-table entries, used for both [.symtab] (ground truth) and
    [.dynsym] (PLT name resolution). *)

type kind = Func | Object | Notype | Section | File

type bind = Local | Global | Weak

type t = {
  name : string;
  value : int;  (** virtual address *)
  size : int;
  kind : kind;
  bind : bind;
  section : string option;  (** defining section name; [None] = undefined *)
}

val undef_func : string -> t
(** Undefined function symbol (an import, for [.dynsym]). *)

val kind_code : kind -> int
val bind_code : bind -> int
val kind_of_code : int -> kind option
val bind_of_code : int -> bind option
