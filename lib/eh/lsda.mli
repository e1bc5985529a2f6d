(** Language-Specific Data Area records, the per-function payload of
    [.gcc_except_table].

    Each LSDA carries the call-site table mapping try-region extents to
    landing-pad (catch-block) offsets.  Offsets are relative to the
    landing-pad base, which GCC omits (encoding 0xff) meaning "the
    function's start address" — the convention implemented here. *)

type call_site = {
  cs_start : int;  (** try-region start, function-relative *)
  cs_len : int;  (** try-region length *)
  cs_landing_pad : int;  (** landing-pad offset, function-relative; 0 = none *)
  cs_action : int;  (** 1-based action-table index; 0 = cleanup *)
}

type t = {
  call_sites : call_site list;
  type_count : int;  (** entries in the types table (caught types) *)
}

val build_table : t list -> string * int list
(** [build_table lsdas] concatenates encoded LSDAs (4-byte aligned) into
    [.gcc_except_table] contents and returns the byte offset of each — the
    offsets FDE LSDA pointers reference.  Each LSDA has an omitted
    LPStart, a udata4 type-table encoding when [type_count > 0], and a
    uleb call-site encoding — GCC's defaults. *)

val decode_result : string -> off:int -> (t, Cet_util.Diag.t) result
(** Parse the LSDA starting at [off] in section contents.  Never raises:
    failures become [eh/lsda-malformed] (unsupported encoding, malformed
    table) or [eh/lsda-truncated] diagnostics, letting the LSDA walk skip
    a corrupt record and keep the rest. *)

val landing_pads : t -> func_start:int -> int list
(** Absolute virtual addresses of the LSDA's landing pads (non-zero ones),
    given the owning function's entry address. *)
