(** The one decode loop behind every linear walk of a code region.

    Plain or end-branch-anchored, it decodes instruction after instruction
    through the scan core ({!Cet_x86.Decoder.scan}) and hands each kept
    instruction to up to two sinks: the instruction stream ({!Linear.t}'s
    parallel arrays) and the index harvest ({!Substrate.indexes}'s
    buffers).  {!Linear.sweep} runs it with the stream only, the
    substrate's stream-free scan with the harvest only, and a substrate
    sweep with whichever of the two it has not memoised yet — so the
    sweep and the scan are the same pass. *)

type stream = {
  mutable addrs : int array;
  mutable targets : int array;
  mutable lens : Bytes.t;
  mutable tags : Bytes.t;  (** {!Cet_x86.Decoder.scratch_flags} bytes *)
  mutable count : int;  (** instructions pushed so far *)
}
(** Parallel instruction arrays, [count] entries used.  A push past the
    capacity doubles every array. *)

val stream : int -> stream
(** An empty stream with room for exactly that many instructions. *)

val capacity_hint : int -> int
(** A starting capacity for a region of that many bytes when its
    instruction count is unknown. *)

val trim : stream -> stream
(** The stream with every array cut to [count] (the same stream when they
    already are). *)

type harvest = {
  eb : Cet_util.Ibuf.t;  (** end-branches of the walked architecture *)
  cs : Cet_util.Ibuf.t;  (** direct-call sites *)
  cr : Cet_util.Ibuf.t;  (** their return addresses *)
  ct : Cet_util.Ibuf.t;  (** their targets, in range or not *)
  js : Cet_util.Ibuf.t;  (** sites of direct jumps with in-range targets *)
  jt : Cet_util.Ibuf.t;  (** their targets *)
}
(** The index buffers, all in address order. *)

val harvest : unit -> harvest

val run :
  Cet_x86.Arch.t ->
  phase:string ->
  anchors:int array option ->
  string ->
  pos:int ->
  len:int ->
  vaddr:int ->
  stream:stream option ->
  harvest:harvest option ->
  int * int
(** [run arch ~phase ~anchors buf ~pos ~len ~vaddr ~stream ~harvest]
    walks the [len] bytes of [buf] from [pos], whose first byte lives at
    [vaddr], and returns [(resync_errors, instructions kept)].

    With [anchors = None] it is the plain sweep: a decode failure advances
    one byte, and each maximal undecodable run is one resync event.  With
    [Some offsets] (region-relative, ascending, {!Prescan.anchor_offsets})
    it is the anchored sweep: an instruction that would straddle an anchor
    is discarded, and it and every decode failure are one event each, the
    walk resuming at the next anchor.  The next anchor is a forward cursor
    over [offsets], since the walk position only grows.

    [phase] names the walk in {!Cet_util.Deadline.check}, polled every
    4096 steps. *)
