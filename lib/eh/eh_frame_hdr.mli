(** [.eh_frame_hdr]: the binary-search index over FDEs that the runtime
    unwinder (and FETCH-style tooling) uses to find the frame covering a PC.

    Layout (GNU): version 1, three encoding bytes, the [.eh_frame] pointer,
    the FDE count, then a table of (initial-location, FDE-address) pairs
    sorted by location, all datarel|sdata4 relative to the section start. *)

type entry = {
  initial_loc : int;  (** function start virtual address *)
  fde_addr : int;  (** virtual address of the FDE in [.eh_frame] *)
}

val encode : vaddr:int -> eh_frame_vaddr:int -> entry list -> string
(** Build section contents for a section placed at [vaddr].  Entries are
    sorted by [initial_loc] internally.  Size depends only on the entry
    count, so layout can be computed before addresses are final. *)

val decode_result : vaddr:int -> string -> (entry list, Cet_util.Diag.t) result
(** Parse section contents; entries come back in table order (sorted).
    Never raises: failures become [eh/eh-frame-hdr-malformed] or
    [eh/eh-frame-hdr-truncated] diagnostics, so production consumers can
    fall back to walking [.eh_frame] instead of crashing on a truncated
    search table. *)

val size : int -> int
(** Encoded size for the given number of entries. *)
