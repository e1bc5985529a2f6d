(** [.eh_frame] encoder/decoder: CIE and FDE records in the GNU layout.

    The encoder emits one CIE with augmentation ["zR"] for plain frames and,
    when any frame carries an LSDA, a second CIE with ["zPLR"] (personality +
    LSDA encoding + FDE encoding), mirroring how GCC separates C and C++
    translation units.  All pointers use DW_EH_PE_pcrel|sdata4.

    The decoder returns every FDE with its resolved [pc_begin], [pc_range]
    and LSDA address — exactly the inputs FETCH-style tools and the
    FunSeeker landing-pad filter consume. *)

type frame = {
  pc_begin : int;  (** function start virtual address *)
  pc_range : int;  (** function size in bytes *)
  lsda : int option;  (** LSDA virtual address in [.gcc_except_table] *)
}

val encode : vaddr:int -> personality:int -> frame list -> string
(** [encode ~vaddr ~personality frames] builds section bytes for a section
    that will live at [vaddr].  [personality] is the virtual address of the
    personality routine (only referenced when some frame has an LSDA).
    A zero terminator record ends the section. *)

val size : frame list -> int
(** [size frames] is [String.length (encode ~vaddr ~personality frames)]
    for every [vaddr] and [personality], without encoding anything: no
    record's size depends on the values it holds. *)

val encode_with_offsets :
  vaddr:int -> personality:int -> frame list -> string * (int * int) list
(** Like {!encode}, also returning [(pc_begin, fde_byte_offset)] for every
    FDE — the input [.eh_frame_hdr] needs. *)

val decode : vaddr:int -> string -> frame list
(** Parse section bytes living at [vaddr].  Unknown augmentations are
    skipped conservatively; raises [Invalid_argument] on structural
    corruption. *)

val decode_result : vaddr:int -> string -> frame list * Cet_util.Diag.t list
(** Non-raising {!decode} for untrusted sections: on structural corruption
    the walk stops and every record before the corrupt one is returned,
    with an [eh/eh-frame] diagnostic describing where it stopped.  Never
    raises. *)
