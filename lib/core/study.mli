(** The §III measurement study: where do end-branch instructions live, and
    which syntactic properties do functions satisfy?

    These analyses consume a binary plus its ground-truth entry list (the
    paper used DWARF symbols) and produce the raw counts behind Table I and
    Figure 3. *)

type endbr_location =
  | At_function_entry
  | After_indirect_return_call
  | At_landing_pad
  | Elsewhere  (** never observed for compiler-generated code *)

val classify_endbrs_st :
  Cet_disasm.Substrate.t -> truth:int list -> (int * endbr_location) list
(** Classify every end-branch found by a linear sweep of [.text], in
    address order. *)

type props = {
  endbr_at_head : bool;  (** EndBrAtHead *)
  dir_jmp_target : bool;  (** DirJmpTarget *)
  dir_call_target : bool;  (** DirCallTarget *)
}

val function_props_st :
  Cet_disasm.Substrate.t -> truth:int list -> (int * props) list
(** For every ground-truth function entry, which of the three §III-C
    properties hold. *)

val props_key : props -> string
(** Canonical region name for Figure 3 aggregation, e.g. ["endbr+call"],
    ["none"]. *)
