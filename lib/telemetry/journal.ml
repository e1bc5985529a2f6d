type kind =
  | Phase_begin
  | Phase_end
  | Diag
  | Deadline_slack
  | Quarantine
  | Steal
  | Shed

let kind_label = function
  | Phase_begin -> "phase-begin"
  | Phase_end -> "phase-end"
  | Diag -> "diag"
  | Deadline_slack -> "deadline-slack"
  | Quarantine -> "quarantine"
  | Steal -> "steal"
  | Shed -> "shed"

let all_kinds =
  [ Phase_begin; Phase_end; Diag; Deadline_slack; Quarantine; Steal; Shed ]

let kind_of_label s = List.find_opt (fun k -> kind_label k = s) all_kinds

type event = {
  j_kind : kind;
  j_name : string;
  j_v : int;
  j_ns : int;
  j_ring : int;
}

type ring = {
  r_id : int;
  r_cap : int;
  r_buf : event array;
  mutable r_next : int;  (** total events ever recorded; slot = next mod cap *)
}

let dummy_event =
  { j_kind = Phase_begin; j_name = ""; j_v = 0; j_ns = 0; j_ring = -1 }

let default_capacity = 256
let enabled_flag = Atomic.make false
let capacity_cell = Atomic.make default_capacity
let enabled () = Atomic.get enabled_flag

let enable ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Journal.enable: capacity must be positive";
  Atomic.set capacity_cell capacity;
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Ring registration mirrors the metric registry: rings are created once
   per domain (plus once after a capacity change) under a mutex, and
   recording always goes through the domain-private ring with no lock. *)
let lock = Mutex.create ()
let all_rings : ring list ref = ref []

let ring_create ~id ~capacity =
  {
    r_id = id;
    r_cap = capacity;
    r_buf = Array.make capacity dummy_event;
    r_next = 0;
  }

let registered_ring () =
  (* The ring id is the domain's metric-sheet id, so journal events and
     phase spans share a [tid] in the exported traces. *)
  let r =
    ring_create ~id:(Registry.ambient ()).Registry.id
      ~capacity:(Atomic.get capacity_cell)
  in
  Mutex.protect lock (fun () -> all_rings := r :: !all_rings);
  r

let dls_key = Domain.DLS.new_key registered_ring

let ambient () =
  let r = Domain.DLS.get dls_key in
  if r.r_cap = Atomic.get capacity_cell then r
  else begin
    (* The capacity changed since this domain's ring was created (tests
       re-enable with a different size): replace the registration. *)
    Mutex.protect lock (fun () ->
        all_rings := List.filter (fun r' -> r' != r) !all_rings);
    let fresh = registered_ring () in
    Domain.DLS.set dls_key fresh;
    fresh
  end

let rings () =
  Mutex.protect lock (fun () ->
      List.sort (fun a b -> compare a.r_id b.r_id) !all_rings)

let reset () =
  Mutex.protect lock (fun () -> List.iter (fun r -> r.r_next <- 0) !all_rings)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ring_record r ~kind ~name ~v =
  let e =
    { j_kind = kind; j_name = name; j_v = v; j_ns = now_ns (); j_ring = r.r_id }
  in
  r.r_buf.(r.r_next mod r.r_cap) <- e;
  r.r_next <- r.r_next + 1

let record ?(v = 0) kind name =
  if enabled () then ring_record (ambient ()) ~kind ~name ~v

let ring_events r =
  let len = min r.r_next r.r_cap in
  let first = r.r_next - len in
  List.init len (fun i -> r.r_buf.((first + i) mod r.r_cap))

let recent ?n () =
  if not (enabled ()) then []
  else begin
    let evs = ring_events (ambient ()) in
    match n with
    | None -> evs
    | Some n ->
      let len = List.length evs in
      if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs
  end

let mark () = if enabled () then (ambient ()).r_next else 0

let count_kind_since m kind =
  if not (enabled ()) then 0
  else begin
    let r = ambient () in
    let len = min r.r_next r.r_cap in
    let first = max m (r.r_next - len) in
    let count = ref 0 in
    for i = first to r.r_next - 1 do
      if r.r_buf.(i mod r.r_cap).j_kind = kind then incr count
    done;
    !count
  end

let event_to_string e =
  Printf.sprintf "%-14s %-32s v=%-8d t=%dns" (kind_label e.j_kind) e.j_name e.j_v
    e.j_ns
