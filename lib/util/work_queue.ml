type event = Steal of { thief : int; victim : int }

type config = { jobs : int; cap : int; seed : int }

let config ?jobs ?cap ?(seed = 0) () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  let cap = match cap with Some c -> c | None -> max 16 (2 * jobs) in
  { jobs; cap; seed }

type stats = { s_items : int; s_steals : int; s_max_pending : int }

type t = {
  cfg : config;
  observer : (event -> unit) option;
  c_items : int Atomic.t;
  c_steals : int Atomic.t;
  c_max_pending : int Atomic.t;
}

let create ?observer cfg =
  if cfg.jobs <= 0 then invalid_arg "Work_queue.create: jobs must be positive";
  if cfg.cap < 1 then invalid_arg "Work_queue.create: cap must be at least 1";
  {
    cfg;
    observer;
    c_items = Atomic.make 0;
    c_steals = Atomic.make 0;
    c_max_pending = Atomic.make 0;
  }

let stats t =
  {
    s_items = Atomic.get t.c_items;
    s_steals = Atomic.get t.c_steals;
    s_max_pending = Atomic.get t.c_max_pending;
  }

let emit t ev = match t.observer with Some f -> f ev | None -> ()

let atomic_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

(* ---- Per-worker deques ------------------------------------------------ *)

(* A mutex-guarded ring: the owner pops from the front (roughly preserving
   plan order, which keeps progress milestones meaningful), thieves pop
   from the back.  Work items are whole binaries or fuzz mutants —
   milliseconds of work — so a lock costing tens of nanoseconds per
   operation is far below the 5% overhead budget and much simpler to
   reason about than a Chase-Lev deque. *)
module Deque = struct
  type t = {
    d_lock : Mutex.t;
    mutable d_buf : int array;
    mutable d_head : int;
    mutable d_len : int;
  }

  let create () =
    { d_lock = Mutex.create (); d_buf = Array.make 8 0; d_head = 0; d_len = 0 }

  let push_back d x =
    Mutex.protect d.d_lock (fun () ->
        let cap = Array.length d.d_buf in
        if d.d_len = cap then begin
          let buf = Array.make (2 * cap) 0 in
          for i = 0 to d.d_len - 1 do
            buf.(i) <- d.d_buf.((d.d_head + i) mod cap)
          done;
          d.d_buf <- buf;
          d.d_head <- 0
        end;
        let cap = Array.length d.d_buf in
        d.d_buf.((d.d_head + d.d_len) mod cap) <- x;
        d.d_len <- d.d_len + 1)

  let pop_front d =
    Mutex.protect d.d_lock (fun () ->
        if d.d_len = 0 then None
        else begin
          let x = d.d_buf.(d.d_head) in
          d.d_head <- (d.d_head + 1) mod Array.length d.d_buf;
          d.d_len <- d.d_len - 1;
          Some x
        end)

  let pop_back d =
    Mutex.protect d.d_lock (fun () ->
        if d.d_len = 0 then None
        else begin
          d.d_len <- d.d_len - 1;
          Some d.d_buf.((d.d_head + d.d_len) mod Array.length d.d_buf)
        end)
end

(* ---- The crew: worker domains that outlive a call ------------------- *)

(* Worker domains are spawned on first need, up to the widest call so
   far, and kept for the whole process, parked on [wake] between calls.
   A domain keeps its own heap pools: on OCaml 5.1 the pools of an exited
   domain are not reused while any object allocated there is still live,
   so a worker spawned per call made a caller that keeps small results
   (a latency float per binary) hold on to pools from every call.  One
   call at a time owns the crew ([owned]). *)
type crew = {
  lock : Mutex.t;
  wake : Condition.t;  (* a call was posted *)
  idle : Condition.t;  (* the last worker of a call left its job *)
  mutable size : int;  (* workers spawned: worker ids 1 .. size *)
  mutable posted : int;  (* calls posted so far *)
  mutable width : int;  (* workers 1 .. width - 1 take the current call *)
  mutable job : int -> unit;  (* the current call's loop, by worker id; never raises *)
  mutable running : int;  (* workers still in the current call's job *)
}

let crew =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    idle = Condition.create ();
    size = 0;
    posted = 0;
    width = 1;
    job = ignore;
    running = 0;
  }

let owned = Atomic.make false

let rec serve w seen =
  Mutex.lock crew.lock;
  while crew.posted = seen do
    Condition.wait crew.wake crew.lock
  done;
  let posted = crew.posted and job = crew.job and takes_part = w < crew.width in
  Mutex.unlock crew.lock;
  if takes_part then begin
    job w;
    Mutex.protect crew.lock (fun () ->
        crew.running <- crew.running - 1;
        if crew.running = 0 then Condition.signal crew.idle)
  end;
  serve w posted

(* Run [job w] on workers 1 .. width - 1 and [job 0] on the caller, and
   return once every worker has left it.  The caller owns the crew. *)
let with_crew width job =
  while crew.size < width - 1 do
    let w = crew.size + 1 and seen = crew.posted in
    ignore (Domain.spawn (fun () -> serve w seen) : unit Domain.t);
    crew.size <- w
  done;
  Mutex.protect crew.lock (fun () ->
      crew.posted <- crew.posted + 1;
      crew.width <- width;
      crew.job <- job;
      crew.running <- width - 1;
      Condition.broadcast crew.wake);
  job 0;
  Mutex.protect crew.lock (fun () ->
      while crew.running > 0 do
        Condition.wait crew.idle crew.lock
      done;
      (* Drop the call's closure, and with it the call's results. *)
      crew.job <- ignore)

(* ---- The pool --------------------------------------------------------- *)

(* [e_index] is the failing item, or -1 for an exception that escaped a
   worker's loop rather than an item (a raising observer): below every
   item, so it stops the call and is the one re-raised. *)
type error = { e_index : int; e_exn : exn; e_bt : Printexc.raw_backtrace }

let sequential n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n (f 0) in
    for k = 1 to n - 1 do
      results.(k) <- f k
    done;
    results
  end

(* [map] on [jobs > 1] workers: the caller is worker 0 and owns the
   crew. *)
let pooled t n f ~jobs =
  let deques = Array.init jobs (fun _ -> Deque.create ()) in
  let results = Array.make n None in
  let failure = Atomic.make None in
  let pending = Atomic.make 0 in
  let submitted_all = Atomic.make false in
  let record_failure k exn bt =
    let rec go () =
      match Atomic.get failure with
      | Some { e_index; _ } when e_index <= k -> ()
      | cur ->
        if
          not
            (Atomic.compare_and_set failure cur
               (Some { e_index = k; e_exn = exn; e_bt = bt }))
        then go ()
    in
    go ()
  in
  (* Array.init semantics under failure: an item above the lowest
     failure so far can no longer matter and is dropped, while every
     admitted item below it still runs — a lower index may fail too.
     Failures only ever lower the bound, and the producer admits
     indices in order and stops at the first failure, so the index
     re-raised is the lowest failing one, at the cost of at most [cap]
     admitted items run past it. *)
  let dropped k =
    match Atomic.get failure with Some { e_index; _ } -> e_index < k | None -> false
  in
  let escaped () =
    match Atomic.get failure with Some { e_index; _ } -> e_index < 0 | None -> false
  in
  let exec k =
    match f k with
    | v ->
      results.(k) <- Some v;
      Atomic.incr t.c_items
    | exception exn -> record_failure k exn (Printexc.get_raw_backtrace ())
  in
  let try_steal w g =
    let start = Prng.int g jobs in
    let rec go i =
      if i >= jobs then None
      else begin
        let v = (start + i) mod jobs in
        if v = w then go (i + 1)
        else
          match Deque.pop_back deques.(v) with
          | Some k ->
            Atomic.incr t.c_steals;
            emit t (Steal { thief = w; victim = v });
            Some k
          | None -> go (i + 1)
      end
    in
    go 0
  in
  let take_one w g =
    match Deque.pop_front deques.(w) with
    | Some k -> Some k
    | None -> try_steal w g
  in
  let run_one k =
    Atomic.decr pending;
    if not (dropped k) then exec k
  in
  (* A loop that escaped may have taken an item without running it, so
     after an escape [pending] need not reach zero: stop on either. *)
  let rec worker_loop w g =
    match take_one w g with
    | Some k ->
      run_one k;
      worker_loop w g
    | None ->
      if (Atomic.get submitted_all && Atomic.get pending = 0) || escaped () then ()
      else begin
        Domain.cpu_relax ();
        worker_loop w g
      end
  in
  (* The calling domain is the producer: feed indices round-robin while
     the admission window has room, and work one item itself whenever
     the window is full — backpressure that never idles the caller. *)
  let producer_loop g =
    let next = ref 0 in
    let rr = ref 0 in
    while !next < n && Atomic.get failure = None do
      if Atomic.get pending < t.cfg.cap then begin
        Deque.push_back deques.(!rr) !next;
        let p = Atomic.fetch_and_add pending 1 + 1 in
        atomic_max t.c_max_pending p;
        rr := (!rr + 1) mod jobs;
        incr next
      end
      else begin
        match take_one 0 g with
        | Some k -> run_one k
        | None -> Domain.cpu_relax ()
      end
    done;
    Atomic.set submitted_all true;
    worker_loop 0 g
  in
  let worker_seed w = t.cfg.seed lxor ((w + 1) * 0x85EBCA6B) in
  (* Backtrace recording is per domain: a worker records them when this
     call's caller does, so an item's backtrace does not depend on where
     it ran. *)
  let backtraces = Printexc.backtrace_status () in
  let job w =
    try
      if w > 0 then Printexc.record_backtrace backtraces;
      let g = Prng.create (worker_seed w) in
      if w = 0 then producer_loop g else worker_loop w g
    with exn -> record_failure (-1) exn (Printexc.get_raw_backtrace ())
  in
  with_crew jobs job;
  match Atomic.get failure with
  | Some { e_exn; e_bt; _ } -> Printexc.raise_with_backtrace e_exn e_bt
  | None -> Array.map (function Some v -> v | None -> assert false) results

let map t n f =
  if n < 0 then invalid_arg "Work_queue.map: negative size";
  (* The runtime refuses to run more than ~128 domains at once; stay well
     under it so a generous jobs count never aborts the run. *)
  let jobs = max 1 (min (min t.cfg.jobs (max n 1)) 120) in
  (* One call at a time holds the workers.  A call that finds them held —
     a [map] from inside an item, or from a second domain — runs on its
     caller alone. *)
  if n = 0 then [||]
  else if jobs > 1 && Atomic.compare_and_set owned false true then
    Fun.protect
      ~finally:(fun () -> Atomic.set owned false)
      (fun () -> pooled t n f ~jobs)
  else begin
    let r = sequential n f in
    ignore (Atomic.fetch_and_add t.c_items n : int);
    atomic_max t.c_max_pending 1;
    r
  end
