module Work_queue = Cet_util.Work_queue

let scheduler_observer (Work_queue.Steal _ : Work_queue.event) =
  Registry.count "scheduler.steals"
