(** ELF format constants (subset used by this project). *)

val elfclass32 : int
val elfclass64 : int
val elfdata2lsb : int
val ev_current : int

val et_exec : int
val et_dyn : int

val em_386 : int
val em_x86_64 : int
val em_aarch64 : int

(* Section types *)
val sht_progbits : int
val sht_symtab : int
val sht_strtab : int
val sht_rela : int
val sht_rel : int
val sht_nobits : int
val sht_dynsym : int
val sht_note : int

(* Section flags *)
val shf_write : int
val shf_alloc : int
val shf_execinstr : int

(* Symbol binding / type *)
val stb_local : int
val stb_global : int
val stb_weak : int
val stt_notype : int
val stt_object : int
val stt_func : int
val stt_section : int
val stt_file : int

val shn_undef : int

(* Program header *)
val pt_load : int

val pf_x : int
val pf_w : int
val pf_r : int

(* Relocations *)
val r_386_jmp_slot : int
val r_x86_64_jump_slot : int

(* GNU property note (CET marking) *)
val nt_gnu_property_type_0 : int
val gnu_property_x86_feature_1_and : int
val gnu_property_x86_feature_1_ibt : int
val gnu_property_x86_feature_1_shstk : int
