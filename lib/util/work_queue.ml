type event =
  | Steal of { thief : int; victim : int }
  | Backoff of { key : string; attempt : int; delay_ns : int }
  | Breaker_open of { group : string; failures : int }
  | Breaker_probe of { group : string }
  | Breaker_close of { group : string }
  | Breaker_skip of { group : string; key : string }
  | Shed of { key : string }
  | Chaos_stall of { worker : int; delay_ns : int }
  | Chaos_delay of { index : int; delay_ns : int }
  | Chaos_fault of { index : int; tries : int }

module Chaos = struct
  type t = {
    c_seed : int;
    c_stall_p : float;
    c_delay_p : float;
    c_fault_p : float;
    c_max_delay_ns : int;
  }

  let default ~seed =
    {
      c_seed = seed;
      c_stall_p = 0.05;
      c_delay_p = 0.10;
      c_fault_p = 0.05;
      c_max_delay_ns = 500_000;
    }
end

module Breaker = struct
  type config = { threshold : int; cooldown : int }
  type phase = Closed | Open | Half_open

  type t = {
    b_cfg : config;
    mutable b_phase : phase;
    mutable b_failures : int;  (* consecutive failures *)
    mutable b_skips : int;  (* remaining fast-fails before a probe *)
  }

  type verdict = Allow | Probe | Skip

  let create cfg =
    if cfg.threshold <= 0 then
      invalid_arg "Work_queue.Breaker.create: threshold must be positive";
    if cfg.cooldown < 0 then
      invalid_arg "Work_queue.Breaker.create: cooldown must be non-negative";
    { b_cfg = cfg; b_phase = Closed; b_failures = 0; b_skips = 0 }

  let ask t =
    match t.b_phase with
    | Closed -> Allow
    (* A probe is already in flight: concurrent units of the group keep
       fast-failing until the probe reports. *)
    | Half_open -> Skip
    | Open ->
      if t.b_skips > 0 then begin
        t.b_skips <- t.b_skips - 1;
        Skip
      end
      else begin
        t.b_phase <- Half_open;
        Probe
      end

  let success t =
    let closed = t.b_phase = Half_open in
    t.b_phase <- Closed;
    t.b_failures <- 0;
    closed

  let failure t =
    match t.b_phase with
    | Half_open ->
      (* The recovery probe failed: reopen with a fresh cooldown. *)
      t.b_phase <- Open;
      t.b_failures <- t.b_failures + 1;
      t.b_skips <- t.b_cfg.cooldown;
      true
    | Open ->
      t.b_failures <- t.b_failures + 1;
      false
    | Closed ->
      t.b_failures <- t.b_failures + 1;
      if t.b_failures >= t.b_cfg.threshold then begin
        t.b_phase <- Open;
        t.b_skips <- t.b_cfg.cooldown;
        true
      end
      else false

  let state_name t =
    match t.b_phase with
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half-open"
end

type config = {
  jobs : int;
  cap : int;
  seed : int;
  attempts : int;
  backoff_base_ns : int;
  backoff_max_ns : int;
  breaker : Breaker.config option;
  run_seconds : float option;
  shed_fraction : float option;
  chaos : Chaos.t option;
}

let config ?jobs ?cap ?(seed = 0) ?(attempts = 2) ?(backoff_base_ns = 1_000_000)
    ?(backoff_max_ns = 50_000_000) ?breaker ?run_seconds ?shed_fraction ?chaos () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  let cap = match cap with Some c -> c | None -> max 16 (2 * jobs) in
  {
    jobs;
    cap;
    seed;
    attempts;
    backoff_base_ns;
    backoff_max_ns;
    breaker;
    run_seconds;
    shed_fraction;
    chaos;
  }

type stats = {
  s_items : int;
  s_steals : int;
  s_retries : int;
  s_breaker_opens : int;
  s_breaker_skips : int;
  s_sheds : int;
  s_chaos_stalls : int;
  s_chaos_delays : int;
  s_chaos_faults : int;
  s_max_pending : int;
}

type t = {
  cfg : config;
  observer : (event -> unit) option;
  lock : Mutex.t;  (* guards the breaker registry *)
  breakers : (string, Breaker.t) Hashtbl.t;
  c_items : int Atomic.t;
  c_steals : int Atomic.t;
  c_retries : int Atomic.t;
  c_breaker_opens : int Atomic.t;
  c_breaker_skips : int Atomic.t;
  c_sheds : int Atomic.t;
  c_chaos_stalls : int Atomic.t;
  c_chaos_delays : int Atomic.t;
  c_chaos_faults : int Atomic.t;
  c_max_pending : int Atomic.t;
}

let create ?observer cfg =
  if cfg.jobs <= 0 then invalid_arg "Work_queue.create: jobs must be positive";
  if cfg.cap < 1 then invalid_arg "Work_queue.create: cap must be at least 1";
  if cfg.attempts < 1 then
    invalid_arg "Work_queue.create: attempts must be at least 1";
  if cfg.backoff_base_ns < 0 || cfg.backoff_max_ns < 0 then
    invalid_arg "Work_queue.create: backoff must be non-negative";
  (match cfg.run_seconds with
  | Some s when s <= 0.0 ->
    invalid_arg "Work_queue.create: run_seconds must be positive"
  | _ -> ());
  (match cfg.chaos with
  | Some c ->
    let p_ok p = p >= 0.0 && p <= 1.0 in
    if
      not
        (p_ok c.Chaos.c_stall_p && p_ok c.Chaos.c_delay_p && p_ok c.Chaos.c_fault_p)
    then invalid_arg "Work_queue.create: chaos probabilities must be in [0,1]";
    if c.Chaos.c_max_delay_ns < 0 then
      invalid_arg "Work_queue.create: chaos delay must be non-negative"
  | None -> ());
  {
    cfg;
    observer;
    lock = Mutex.create ();
    breakers = Hashtbl.create 16;
    c_items = Atomic.make 0;
    c_steals = Atomic.make 0;
    c_retries = Atomic.make 0;
    c_breaker_opens = Atomic.make 0;
    c_breaker_skips = Atomic.make 0;
    c_sheds = Atomic.make 0;
    c_chaos_stalls = Atomic.make 0;
    c_chaos_delays = Atomic.make 0;
    c_chaos_faults = Atomic.make 0;
    c_max_pending = Atomic.make 0;
  }

let stats t =
  {
    s_items = Atomic.get t.c_items;
    s_steals = Atomic.get t.c_steals;
    s_retries = Atomic.get t.c_retries;
    s_breaker_opens = Atomic.get t.c_breaker_opens;
    s_breaker_skips = Atomic.get t.c_breaker_skips;
    s_sheds = Atomic.get t.c_sheds;
    s_chaos_stalls = Atomic.get t.c_chaos_stalls;
    s_chaos_delays = Atomic.get t.c_chaos_delays;
    s_chaos_faults = Atomic.get t.c_chaos_faults;
    s_max_pending = Atomic.get t.c_max_pending;
  }

let emit t ev = match t.observer with Some f -> f ev | None -> ()

let atomic_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

(* ---- Backoff ---------------------------------------------------------- *)

let backoff_ns ~base_ns ~max_ns ~attempt =
  if base_ns <= 0 || max_ns <= 0 then 0
  else begin
    let shift = min (max 0 (attempt - 1)) 20 in
    min max_ns (base_ns * (1 lsl shift))
  end

let jittered_backoff_ns g ~base_ns ~max_ns ~attempt =
  let d = backoff_ns ~base_ns ~max_ns ~attempt in
  if d <= 1 then d else (d / 2) + Prng.int g ((d / 2) + 1)

let sleep_ns ns = if ns > 0 then Unix.sleepf (float_of_int ns /. 1e9)

(* ---- Per-worker deques ------------------------------------------------ *)

(* A mutex-guarded ring: the owner pops from the front (roughly preserving
   plan order, which keeps progress milestones meaningful), thieves pop
   from the back.  Work items are whole binaries or programs — milliseconds
   of work — so a lock costing tens of nanoseconds per operation is far
   below the 5% overhead budget and much simpler to reason about than a
   Chase-Lev deque. *)
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

(* ---- The pool --------------------------------------------------------- *)

type error = { e_index : int; e_exn : exn; e_bt : Printexc.raw_backtrace }

(* Per-item chaos draws are keyed by (chaos seed, item index) so they are
   identical whichever worker dequeues the item — the event counts of a
   chaos run are deterministic in the seed. *)
let item_prng ~seed k = Prng.create (seed lxor ((k + 1) * 0x9E3779B9))

let sequential n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n (f 0) in
    for k = 1 to n - 1 do
      results.(k) <- f k
    done;
    results
  end

let map t n f =
  if n < 0 then invalid_arg "Work_queue.map: negative size";
  (* The runtime refuses to run more than ~128 domains at once; stay well
     under it so a generous jobs count never aborts the run. *)
  let jobs = max 1 (min (min t.cfg.jobs (max n 1)) 120) in
  let under_run_deadline g =
    match t.cfg.run_seconds with
    | None -> g ()
    | Some seconds -> Deadline.with_ ~seconds g
  in
  if n = 0 then [||]
  else if jobs <= 1 && t.cfg.chaos = None then
    under_run_deadline (fun () ->
        let r = sequential n f in
        Atomic.set t.c_items (Atomic.get t.c_items + n);
        atomic_max t.c_max_pending 1;
        r)
  else begin
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
    (* One item, chaos applied: any transient dispatch fault is retried by
       the scheduler itself (bounded draws, backoff between), so the
       client work runs exactly once and results cannot depend on the
       chaos seed. *)
    let exec k =
      (match t.cfg.chaos with
      | None -> ()
      | Some c ->
        let g = item_prng ~seed:c.Chaos.c_seed k in
        let rec faults tries =
          if tries < 3 && Prng.chance g c.Chaos.c_fault_p then begin
            Atomic.incr t.c_chaos_faults;
            emit t (Chaos_fault { index = k; tries = tries + 1 });
            sleep_ns
              (backoff_ns ~base_ns:(min 50_000 c.Chaos.c_max_delay_ns)
                 ~max_ns:c.Chaos.c_max_delay_ns ~attempt:(tries + 1));
            faults (tries + 1)
          end
        in
        faults 0;
        if Prng.chance g c.Chaos.c_delay_p then begin
          let d = Prng.int g (c.Chaos.c_max_delay_ns + 1) in
          Atomic.incr t.c_chaos_delays;
          emit t (Chaos_delay { index = k; delay_ns = d });
          sleep_ns d
        end);
      match f k with
      | v ->
        results.(k) <- Some v;
        Atomic.incr t.c_items
      | exception exn -> record_failure k exn (Printexc.get_raw_backtrace ())
    in
    let maybe_stall w g =
      match t.cfg.chaos with
      | Some c when Prng.chance g c.Chaos.c_stall_p ->
        let d = Prng.int g (c.Chaos.c_max_delay_ns + 1) in
        Atomic.incr t.c_chaos_stalls;
        emit t (Chaos_stall { worker = w; delay_ns = d });
        sleep_ns d
      | _ -> ()
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
    let run_one w g k =
      Atomic.decr pending;
      if not (dropped k) then begin
        maybe_stall w g;
        exec k
      end
    in
    let rec worker_loop w g =
      match take_one w g with
      | Some k ->
        run_one w g k;
        worker_loop w g
      | None ->
        if Atomic.get submitted_all && Atomic.get pending = 0 then ()
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
          | Some k -> run_one 0 g k
          | None -> Domain.cpu_relax ()
        end
      done;
      Atomic.set submitted_all true;
      worker_loop 0 g
    in
    let worker_seed w = t.cfg.seed lxor ((w + 1) * 0x85EBCA6B) in
    let domains =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              under_run_deadline (fun () ->
                  worker_loop (i + 1) (Prng.create (worker_seed (i + 1))))))
    in
    under_run_deadline (fun () -> producer_loop (Prng.create (worker_seed 0)));
    Array.iter Domain.join domains;
    match Atomic.get failure with
    | Some { e_exn; e_bt; _ } -> Printexc.raise_with_backtrace e_exn e_bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

(* ---- Guarded units ---------------------------------------------------- *)

type unit_failure = {
  w_attempts : int;
  w_error : exn;
  w_bt : Printexc.raw_backtrace;
  w_breaker_skip : bool;
}

type 'a guarded = { g_value : 'a; g_attempts : int; g_degraded : bool }

exception Breaker_tripped of string

let () =
  Printexc.register_printer (function
    | Breaker_tripped group ->
      Some (Printf.sprintf "Work_queue.Breaker_tripped(%s)" group)
    | _ -> None)

(* Guard retries sleep with jitter from a domain-local generator: the
   jitter changes timing only, never outcomes, so it needs no cross-run
   determinism — but it must not be shared mutable state across domains. *)
let jitter_key : Prng.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let jitter_prng t =
  let cell = Domain.DLS.get jitter_key in
  match !cell with
  | Some g -> g
  | None ->
    let g = Prng.create (t.cfg.seed lxor 0x6C62272E) in
    cell := Some g;
    g

let breaker_for t group =
  match t.cfg.breaker with
  | None -> None
  | Some cfg ->
    Some
      (Mutex.protect t.lock (fun () ->
           match Hashtbl.find_opt t.breakers group with
           | Some b -> b
           | None ->
             let b = Breaker.create cfg in
             Hashtbl.add t.breakers group b;
             b))

let guard t ~key ~group ?(retryable = fun _ -> true) work =
  let breaker = breaker_for t group in
  let ask () =
    match breaker with
    | None -> Breaker.Allow
    | Some b -> Mutex.protect t.lock (fun () -> Breaker.ask b)
  in
  let report ok =
    match breaker with
    | None -> ()
    | Some b ->
      let transition =
        Mutex.protect t.lock (fun () ->
            if ok then if Breaker.success b then `Closed else `None
            else if Breaker.failure b then `Opened b.Breaker.b_failures
            else `None)
      in
      (match transition with
      | `Closed -> emit t (Breaker_close { group })
      | `Opened failures ->
        Atomic.incr t.c_breaker_opens;
        emit t (Breaker_open { group; failures })
      | `None -> ())
  in
  match ask () with
  | Breaker.Skip ->
    Atomic.incr t.c_breaker_skips;
    emit t (Breaker_skip { group; key });
    Error
      {
        w_attempts = 0;
        w_error = Breaker_tripped group;
        w_bt = Printexc.get_callstack 0;
        w_breaker_skip = true;
      }
  | (Breaker.Allow | Breaker.Probe) as verdict ->
    if verdict = Breaker.Probe then emit t (Breaker_probe { group });
    let degraded =
      match t.cfg.shed_fraction with
      | None -> false
      | Some frac -> (
        match Deadline.remaining_fraction () with
        | Some r when r < frac ->
          Atomic.incr t.c_sheds;
          emit t (Shed { key });
          true
        | _ -> false)
    in
    let rec go attempt =
      match work ~attempt ~degraded with
      | v ->
        report true;
        Ok { g_value = v; g_attempts = attempt; g_degraded = degraded }
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        report false;
        if attempt < t.cfg.attempts && retryable e then begin
          Atomic.incr t.c_retries;
          let d =
            jittered_backoff_ns (jitter_prng t) ~base_ns:t.cfg.backoff_base_ns
              ~max_ns:t.cfg.backoff_max_ns ~attempt
          in
          emit t (Backoff { key; attempt; delay_ns = d });
          sleep_ns d;
          go (attempt + 1)
        end
        else
          Error
            { w_attempts = attempt; w_error = e; w_bt = bt; w_breaker_skip = false }
    in
    go 1
