(* Sweep a code blob the way [Substrate.sweep] sweeps a [.text]: one plain
   [Decoder.walk] with the stream on, wrapped by [Linear.of_stream].  The
   tests sweep synthetic blobs that have no ELF around them. *)

let blob arch ?(base = 0) code =
  let w =
    Cet_x86.Decoder.walk arch ~phase:"disasm.sweep" ~anchors:None code ~pos:0
      ~len:(String.length code) ~vaddr:base ~stream:true ~harvest:None
  in
  Cet_disasm.Linear.of_stream arch ~base ~code (Option.get w.stream)
    ~resync_errors:w.resync_errors
