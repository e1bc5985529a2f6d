(* Space-separated hex bytes on one line, e.g. ["f3 0f 1e fa"]: how the
   tests name an instruction's bytes in a failure message. *)

let bytes_inline s =
  String.concat " "
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
