(** SWAR end-branch prescan over code bytes (DESIGN.md §13).

    Finds the anchored sweep's resynchronisation points — every end-branch
    byte pattern — 8 bytes at a time with 64-bit loads and a branchless
    byte-class test, instead of a per-byte pattern match.  The prescan
    never influences the instruction boundaries of the plain linear
    sweep. *)

val anchor_offsets : Cet_x86.Arch.t -> string -> int array
(** Offsets of every end-branch byte pattern ([F3 0F 1E FA] on x86-64,
    [.. FB] on x86), ascending.  SWAR scan: only words containing an
    [F3] byte are inspected per-byte; pattern reads go back to the
    string, so matches straddling word boundaries and in the final
    [n-4] tail are found like any other. *)
