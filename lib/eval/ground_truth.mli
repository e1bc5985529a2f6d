(** Ground-truth extraction (§V-A1).

    The paper reads function entries from debug symbols and applies two
    corrections: [.cold]/[.part] fragments carry [STT_FUNC] symbols but are
    not functions, and [__x86.get_pc_thunk] sometimes lacks a symbol even
    though it is one.  [from_symbols] implements the symbol side; the
    dataset additionally supplies the compiler's own entry list so the
    thunk correction can be validated. *)

val is_fragment_name : string -> bool
(** [.cold] / [.part.N] suffix test. *)

val from_symbols : Cet_elf.Reader.t -> (string * int) list
(** [STT_FUNC] symbols defined in [.text], fragment symbols excluded.
    Empty for stripped binaries. *)

val addresses : (string * int) list -> int list
(** Entry addresses, sorted and deduplicated. *)
