(** Precision / recall accounting over function-entry sets. *)

type counts = { tp : int; fp : int; fn : int }

val empty : counts
val add : counts -> counts -> counts

val compare_sets : truth:int list -> found:int list -> counts
(** Both lists are entry addresses (need not be sorted or unique). *)

val precision : counts -> float
(** TP / (TP + FP), as a percentage; 100 when nothing was reported. *)

val recall : counts -> float
(** TP / (TP + FN), as a percentage; 100 when nothing was expected. *)

val false_entries : truth:int list -> found:int list -> int list * int list
(** [(false_positives, false_negatives)], sorted. *)
