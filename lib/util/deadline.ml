exception Expired of { what : string; seconds : float }

let () =
  Printexc.register_printer (function
    | Expired { what; seconds } ->
      Some (Printf.sprintf "Deadline.Expired(%s, budget %gs)" what seconds)
    | _ -> None)

(* The ambient deadline is per-domain (each evaluation worker guards its
   own binary), reached through DLS.  The global count of active deadlines
   makes the disabled path one atomic load — the same discipline as the
   telemetry registry, so sprinkling [check] into hot sweep loops costs
   nothing in normal runs. *)
type state = { until : float; budget : float }

let active_count = Atomic.make 0
let key : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Atomic.get active_count > 0

let with_ ~seconds f =
  (* [not (> 0)] rather than [<= 0]: a NaN budget would arm a deadline
     that [now >= until] never reaches. *)
  if not (seconds > 0.0) then invalid_arg "Deadline.with_: seconds must be positive";
  let prev = Domain.DLS.get key in
  let now = Unix.gettimeofday () in
  (* Nested deadlines never extend an enclosing one. *)
  let until =
    match prev with
    | Some p -> Float.min p.until (now +. seconds)
    | None -> now +. seconds
  in
  Domain.DLS.set key (Some { until; budget = seconds });
  Atomic.incr active_count;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active_count;
      Domain.DLS.set key prev)
    f

let expired () =
  active ()
  &&
  match Domain.DLS.get key with
  | None -> false
  | Some s -> Unix.gettimeofday () >= s.until

let check what =
  if active () then
    match Domain.DLS.get key with
    | None -> ()
    | Some s ->
      let now = Unix.gettimeofday () in
      (* >= so a budget below the clock's resolution (until == now at arm
         time) still reads as expired on the very next check. *)
      if now >= s.until then raise (Expired { what; seconds = s.budget })
