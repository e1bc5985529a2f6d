(** Control-flow-graph recovery on top of identified function entries.

    The paper motivates function identification as the cornerstone of CFG
    recovery ("CFG recovery techniques often rely on the assumption that
    function entries are known", §VII-B): this library is that downstream
    consumer.  Given a binary and a set of entries (by default FunSeeker's
    output), it partitions each function extent into basic blocks, recovers
    intra-procedural edges, and derives the call graph. *)

type terminator =
  | T_return  (** [ret] *)
  | T_jump of int  (** unconditional, in-function target *)
  | T_tail of int  (** unconditional jump leaving the function *)
  | T_cond of int * int  (** (taken, fall-through) *)
  | T_indirect  (** [jmp r/m] — switch dispatch *)
  | T_halt
  | T_fall  (** block split by an incoming edge *)

type block = {
  b_start : int;
  b_stop : int;  (** exclusive *)
  b_insns : int;  (** instruction count *)
  b_term : terminator;
}

type func = {
  f_entry : int;
  f_stop : int;  (** extent end (next entry or end of text) *)
  f_blocks : block list;  (** in address order; the first starts at entry *)
  f_edges : (int * int) list;  (** intra-procedural, block start → block start *)
  f_calls : int list;  (** distinct outgoing direct-call targets (in text) *)
}

val recover_st : ?entries:int list -> Cet_disasm.Substrate.t -> func list
(** Recover one CFG per function.  [entries] defaults to running FunSeeker
    (configuration ④) over the same substrate, so the sweep and
    FunSeeker's analysis are shared rather than recomputed.  Raises
    [Invalid_argument] when the image has no [.text]. *)

val block_count : func -> int
val edge_count : func -> int

val reachable_from : func list -> int -> int list
(** Entries transitively reachable from the given entry through the call
    graph (including itself). *)

val to_dot : func -> string
(** Graphviz rendering of one function's CFG. *)
