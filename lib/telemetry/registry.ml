type counter = { mutable n : int }
type gauge = { mutable g : float }
type metric = { hist : Hist.t; mutable child_ns : int }

type event = {
  ev_name : string;
  ev_depth : int;
  ev_start_ns : int;
  ev_dur_ns : int;
  ev_sheet : int;
}

type frame = { f_name : string; f_start : int; mutable f_child : int }

type sheet = {
  id : int;
  spans : (string, metric) Hashtbl.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  mutable events : event list;
  mutable stack : frame list;
}

let enabled_flag = Atomic.make false
let trace_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let tracing () = Atomic.get trace_flag

let enable ?(trace = false) () =
  Atomic.set trace_flag trace;
  Atomic.set enabled_flag true

let disable () =
  Atomic.set enabled_flag false;
  Atomic.set trace_flag false

(* Sheet registration is the only shared mutable state; it is touched once
   per domain (plus once per reset/report), so a mutex is fine.  Recording
   always goes through the domain-private sheet and never locks. *)
let lock = Mutex.create ()
let all_sheets : sheet list ref = ref []
let next_id = Atomic.make 0

let create () =
  {
    id = Atomic.fetch_and_add next_id 1;
    spans = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    events = [];
    stack = [];
  }

let registered_sheet () =
  let s = create () in
  Mutex.protect lock (fun () -> all_sheets := s :: !all_sheets);
  s

let dls_key = Domain.DLS.new_key registered_sheet
let ambient () = Domain.DLS.get dls_key

let sheets () =
  Mutex.protect lock (fun () ->
      List.sort (fun a b -> compare a.id b.id) !all_sheets)

let clear_sheet s =
  Hashtbl.reset s.spans;
  Hashtbl.reset s.counters;
  Hashtbl.reset s.gauges;
  s.events <- [];
  s.stack <- []

let reset () = Mutex.protect lock (fun () -> List.iter clear_sheet !all_sheets)

let merge into src =
  Hashtbl.iter
    (fun name (c : counter) ->
      match Hashtbl.find_opt into.counters name with
      | Some d -> d.n <- d.n + c.n
      | None -> Hashtbl.replace into.counters name { n = c.n })
    src.counters;
  Hashtbl.iter
    (fun name (g : gauge) ->
      match Hashtbl.find_opt into.gauges name with
      | Some d -> if g.g > d.g then d.g <- g.g
      | None -> Hashtbl.replace into.gauges name { g = g.g })
    src.gauges;
  Hashtbl.iter
    (fun name (m : metric) ->
      match Hashtbl.find_opt into.spans name with
      | Some d ->
        Hist.merge d.hist m.hist;
        d.child_ns <- d.child_ns + m.child_ns
      | None ->
        let d = { hist = Hist.create (); child_ns = m.child_ns } in
        Hist.merge d.hist m.hist;
        Hashtbl.replace into.spans name d)
    src.spans;
  into.events <- src.events @ into.events

let merged () = List.fold_left (fun acc s -> merge acc s; acc) (create ()) (sheets ())

let count ?(n = 1) name =
  if enabled () then begin
    let s = ambient () in
    match Hashtbl.find_opt s.counters name with
    | Some c -> c.n <- c.n + n
    | None -> Hashtbl.replace s.counters name { n }
  end

let gauge_set name v =
  if enabled () then begin
    let s = ambient () in
    match Hashtbl.find_opt s.gauges name with
    | Some g -> g.g <- v
    | None -> Hashtbl.replace s.gauges name { g = v }
  end

let find_counter s name =
  match Hashtbl.find_opt s.counters name with Some c -> c.n | None -> 0
