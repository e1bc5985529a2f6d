let enabled = Registry.enabled
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let push (s : Registry.sheet) name =
  s.stack <- { Registry.f_name = name; f_start = now_ns (); f_child = 0 } :: s.stack

let pop (s : Registry.sheet) =
  match s.stack with
  | [] -> ()
  | fr :: rest ->
    s.stack <- rest;
    let dur = now_ns () - fr.f_start in
    let m =
      match Hashtbl.find_opt s.spans fr.f_name with
      | Some m -> m
      | None ->
        let m = { Registry.hist = Hist.create (); child_ns = 0 } in
        Hashtbl.replace s.spans fr.f_name m;
        m
    in
    Hist.add m.hist dur;
    m.child_ns <- m.child_ns + fr.f_child;
    (match rest with
    | parent :: _ -> parent.f_child <- parent.f_child + dur
    | [] -> ());
    if Registry.tracing () then
      s.events <-
        {
          Registry.ev_name = fr.f_name;
          ev_depth = List.length rest;
          ev_start_ns = fr.f_start;
          ev_dur_ns = dur;
          ev_sheet = s.id;
        }
        :: s.events

let with_ ~name f =
  if not (Registry.enabled ()) then f ()
  else begin
    let s = Registry.ambient () in
    push s name;
    match f () with
    | v ->
      pop s;
      v
    | exception e ->
      pop s;
      raise e
  end

let enter ~name = if Registry.enabled () then push (Registry.ambient ()) name
let exit_ () = if Registry.enabled () then pop (Registry.ambient ())
