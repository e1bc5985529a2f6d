type severity = Info | Warning | Error

type t = { severity : severity; domain : string; code : string; message : string }

let make ?(severity = Warning) ~domain ~code message =
  { severity; domain; code; message }

let makef ?severity ~domain ~code fmt =
  Printf.ksprintf (fun message -> make ?severity ~domain ~code message) fmt

let error ~domain ~code message = make ~severity:Error ~domain ~code message

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let to_string d =
  Printf.sprintf "%s [%s/%s]: %s" (severity_label d.severity) d.domain d.code
    d.message

let render ds = String.concat "" (List.map (fun d -> to_string d ^ "\n") ds)

module Collector = struct
  type diag = t

  (* Newest-first internally; [list] restores chronological order. *)
  type nonrec t = { mutable items : diag list; mutable count : int }

  let create () = { items = []; count = 0 }

  (* A degenerate input can trip the same clamp thousands of times (one per
     section, per LSDA, ...).  Cap the retained list so diagnostics cannot
     become their own resource-exhaustion vector; one marker records the
     truncation. *)
  let cap = 256

  let add c d =
    if c.count < cap then c.items <- d :: c.items
    else if c.count = cap then
      c.items <-
        make ~severity:Warning ~domain:"diag" ~code:"truncated"
          (Printf.sprintf "diagnostic list truncated at %d entries" cap)
        :: c.items;
    c.count <- c.count + 1

  let addf c ?severity ~domain ~code fmt =
    Printf.ksprintf (fun message -> add c (make ?severity ~domain ~code message)) fmt

  let list c = List.rev c.items
end
