type severity = Info | Warning | Error

type t = { severity : severity; domain : string; code : string; message : string }

let make ?(severity = Warning) ~domain ~code message =
  { severity; domain; code; message }

let makef ?severity ~domain ~code fmt =
  Printf.ksprintf (fun message -> make ?severity ~domain ~code message) fmt

let info ~domain ~code message = make ~severity:Info ~domain ~code message
let warning ~domain ~code message = make ~severity:Warning ~domain ~code message
let error ~domain ~code message = make ~severity:Error ~domain ~code message

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

(* Ordered so [max_severity] can fold with [max]. *)
let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let to_string d =
  Printf.sprintf "%s [%s/%s]: %s" (severity_label d.severity) d.domain d.code
    d.message

let render ds = String.concat "" (List.map (fun d -> to_string d ^ "\n") ds)

let max_severity = function
  | [] -> None
  | d :: ds ->
    Some
      (List.fold_left
         (fun acc d -> if severity_rank d.severity > severity_rank acc then d.severity else acc)
         d.severity ds)

let with_severity sev ds = List.filter (fun d -> d.severity = sev) ds
let errors ds = with_severity Error ds
let warnings ds = with_severity Warning ds
let has_errors ds = errors ds <> []

module Collector = struct
  type diag = t

  (* Newest-first internally; [list] restores chronological order. *)
  type nonrec t = { mutable items : diag list; mutable count : int }

  let create () = { items = []; count = 0 }

  (* A degenerate input can trip the same clamp thousands of times (one per
     section, per LSDA, ...).  Cap the retained list so diagnostics cannot
     become their own resource-exhaustion vector; the count keeps the true
     total. *)
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
  let count c = c.count
  let is_empty c = c.count = 0
end
