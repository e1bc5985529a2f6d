(** Growable [int] buffer: a doubling array plus a fill count —
    monomorphic, no lists, no boxing.  The index harvests, the anchor
    prescan and the baselines' traversals all accumulate into one. *)

type t = { mutable arr : int array; mutable len : int }
(** [len] values in [arr.(0) .. arr.(len - 1)].  The fields are open so
    that a hot loop can inline {!push}'s fast path: the default build
    compiles with [-opaque], so nothing inlines across modules. *)

val create : ?capacity:int -> unit -> t
(** An empty buffer with room for [capacity] values (default 64). *)

val push : t -> int -> unit

val contents : t -> int array
(** A fresh array of the values in push order (never aliases the
    buffer). *)
