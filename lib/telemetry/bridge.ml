module Work_queue = Cet_util.Work_queue

let journal ?v kind name = if Journal.enabled () then Journal.record ?v kind name

let scheduler_observer (ev : Work_queue.event) =
  match ev with
  | Work_queue.Steal { thief; victim } ->
    Registry.count "scheduler.steals";
    journal Journal.Steal (Printf.sprintf "%d<-%d" thief victim)
  | Work_queue.Shed { key } ->
    Registry.count "scheduler.sheds";
    journal Journal.Shed key
  | Work_queue.Chaos_stall _ -> Registry.count "scheduler.chaos_stalls"
  | Work_queue.Chaos_delay _ -> Registry.count "scheduler.chaos_delays"
