(** Little-endian byte-level readers and writers used by the ELF, EH and
    instruction codecs.  Everything is little-endian because the paper's
    targets (x86, x86-64) are. *)

module W : sig
  (** Append-only little-endian writer on top of [Buffer.t]. *)

  type t

  val create : ?size:int -> unit -> t
  val length : t -> int
  val contents : t -> string
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit
  val i32 : t -> int -> unit
  val bytes : t -> string -> unit
  val zeros : t -> int -> unit
  val pad_to : t -> int -> unit
  (** [pad_to w n] appends zero bytes until [length w >= n]. *)

  val align : t -> int -> unit
  (** [align w a] pads with zeros to the next multiple of [a]. *)

  val uleb : t -> int -> unit
  val sleb : t -> int -> unit
end

module R : sig
  (** Positioned little-endian reader over an immutable string. *)

  type t

  exception Out_of_bounds of string

  val of_string : string -> t
  val sub : string -> pos:int -> len:int -> t
  (** Reader over a slice; reads past the slice raise {!Out_of_bounds}. *)

  val pos : t -> int
  val seek : t -> int -> unit
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  (** Values above [max_int] raise {!Out_of_bounds}; all images here are
      far smaller than 2^62. *)

  val i32 : t -> int
  val bytes : t -> int -> string
  val uleb : t -> int
  val sleb : t -> int
end
