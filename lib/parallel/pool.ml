(* A process-wide persistent parallel runtime.

   The tool's heavy workloads — all-nodes probing, Monte-Carlo, corners —
   are embarrassingly parallel, but `Domain.spawn` costs milliseconds,
   which dwarfs a chunk of frequency-point solves. So this module keeps
   one pool of worker domains, started lazily on the first parallel
   submission and reused for every later one.

   A submission publishes its batch under the pool lock and wakes the
   workers; every participant, the submitter included, then claims the
   next chunk with one [Atomic.fetch_and_add] until the cursor passes the
   end, so a slow chunk holds up only the participant running it.
   Whoever finishes the last chunk wakes the submitter. There is only
   ever one live batch: a submission from inside a pool task runs
   inline, and so does a top-level one that finds another domain's batch
   still running. *)

type batch = {
  body : int -> unit;
  n : int;
  csize : int;                   (* indices per chunk *)
  nchunks : int;
  next : int Atomic.t;           (* the next unclaimed chunk *)
  pending : int Atomic.t;        (* chunks not yet fully executed *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first failure wins; later chunks of the batch are skipped *)
}

type pool = {
  mutable domains : unit Domain.t array;
  lock : Mutex.t;                (* guards the three fields below *)
  wake : Condition.t;            (* workers sleep here between batches *)
  finished : Condition.t;        (* the submitter waits here *)
  mutable current : batch option;
  mutable generation : int;      (* bumped on every published batch *)
  mutable stop : bool;
}

(* Pool health counters. Always on: all sit on the coarse per-chunk /
   per-submission paths, never inside a chunk body. *)
let jobs_counter = Obs.Counter.make "pool.jobs"
let chunks_counter = Obs.Counter.make "pool.chunks"
let queue_high_water_counter = Obs.Counter.make "pool.queue_high_water"
let main_busy_counter = Obs.Counter.make "pool.main.busy_ns"

let worker_busy_counter k =
  Obs.Counter.make (Printf.sprintf "pool.worker%d.busy_ns" k)

(* Participants currently inside a chunk body — point-in-time state
   (a gauge, not a counter), sampled by the serve daemon's background
   tick as pool.busy_workers. *)
let busy_now = Atomic.make 0
let busy_workers () = Atomic.get busy_now

(* Every index of a pool batch executes with this flag set — on a worker
   domain or on the submitter while it helps drain chunks — so a nested
   submission (a Monte-Carlo sample fanning out its own sweep) detects it
   and runs inline instead of oversubscribing the machine. *)
let worker_flag = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_flag

(* ---- configuration ---- *)

(* The accepted grammar of ACSTAB_JOBS, pure so tests can pin it. Values
   out of range are rejected, not clamped: a clamped typo would silently
   run at the wrong setting. *)
let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

(* Warn once, naming the rejected value and the fallback used. *)
let default_jobs () =
  let fallback = Domain.recommended_domain_count () in
  match Sys.getenv_opt "ACSTAB_JOBS" with
  | None -> fallback
  | Some s ->
    (match parse_jobs s with
     | Some n -> n
     | None ->
       Obs.Events.warn_once ~key:"ACSTAB_JOBS"
         (Printf.sprintf
            "acstab: warning: invalid ACSTAB_JOBS=%S (expected an integer \
             >= 1); using %d"
            s fallback);
       fallback)

(* Total parallelism, submitting domain included: [effective_jobs () - 1]
   worker domains are kept. *)
let requested = Atomic.make (default_jobs ())
let oversub = Atomic.make false
let jobs () = Atomic.get requested
let set_oversubscribe b = Atomic.set oversub b

(* Guards [pool] (configuration only, never on the scheduling path). *)
let config = Mutex.create ()
let pool : pool option ref = ref None

let locked f =
  Mutex.lock config;
  Fun.protect ~finally:(fun () -> Mutex.unlock config) f

(* OCaml 5 minor collections are stop-the-world across all domains, so
   more domains than cores make every minor GC wait for descheduled
   ones: `-j 4` on one core once ran ~2.3x slower than `-j 1`. The pool
   therefore clamps to the hardware unless [set_oversubscribe] forces
   it (the scheduler tests do). *)
let effective_jobs () =
  let n = Atomic.get requested in
  if Atomic.get oversub then n
  else Int.min n (Int.max 1 (Domain.recommended_domain_count ()))

(* Chunks of the live batch not yet claimed — a gauge sample, so a racy
   read of [current] is good enough. *)
let queued_chunks () =
  match locked (fun () -> Option.bind !pool (fun p -> p.current)) with
  | None -> 0
  | Some b -> Int.max 0 (b.nchunks - Atomic.get b.next)

(* ---- chunk execution ---- *)

let chunk_ms_histogram = Obs.Histogram.make "pool.chunk_ms"

let run_chunk ~busy b k =
  Obs.Counter.incr chunks_counter;
  Atomic.incr busy_now;
  let lo = k * b.csize in
  let hi = Int.min b.n (lo + b.csize) in
  (* One span per chunk, on the executing domain's lane of the Chrome
     trace; a chunk amortises many [body] calls. *)
  let span = Obs.Span.enter () in
  let t0 = Obs.Clock.now_ns () in
  (try
     let i = ref lo in
     (* Stop early once a sibling chunk failed: the submitter only
        reports the first exception, so the rest is wasted work. *)
     while !i < hi && Atomic.get b.failed = None do
       b.body !i;
       incr i
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set b.failed None (Some (e, bt))));
  let dt = Obs.Clock.now_ns () - t0 in
  Atomic.decr busy_now;
  Obs.Span.leave "pool.chunk" ~args:[ ("items", hi - lo) ] span;
  Obs.Histogram.observe chunk_ms_histogram (float_of_int dt *. 1e-6);
  Obs.Counter.add busy dt

(* Claim chunks from the shared cursor until it passes the end. The
   participant that finishes the last chunk wakes the submitter; the
   lock closes the race with a submitter about to wait. *)
let drain p ~busy b =
  let rec claim () =
    let k = Atomic.fetch_and_add b.next 1 in
    if k < b.nchunks then begin
      run_chunk ~busy b k;
      if Atomic.fetch_and_add b.pending (-1) = 1 then begin
        Mutex.lock p.lock;
        Condition.signal p.finished;
        Mutex.unlock p.lock
      end;
      claim ()
    end
  in
  claim ()

let worker p busy () =
  Domain.DLS.set worker_flag true;
  let rec loop seen =
    Mutex.lock p.lock;
    while (not p.stop) && p.generation = seen do
      Condition.wait p.wake p.lock
    done;
    let stop = p.stop and seen = p.generation and b = p.current in
    Mutex.unlock p.lock;
    if not stop then begin
      Option.iter (drain p ~busy) b;
      loop seen
    end
  in
  loop 0

(* ---- lifecycle ---- *)

(* A worker looks at [stop] only between batches, and the submitter
   can drain its whole batch alone, so stopping never strands a chunk. *)
let stop_pool p =
  Mutex.lock p.lock;
  p.stop <- true;
  Condition.broadcast p.wake;
  Mutex.unlock p.lock;
  Array.iter Domain.join p.domains

let shutdown () =
  let p =
    locked (fun () ->
      let p = !pool in
      pool := None;
      p)
  in
  Option.iter stop_pool p

(* The next submission respawns lazily at the new size. *)
let set_jobs n =
  let n = Int.max 1 n in
  if Atomic.exchange requested n <> n then shutdown ()

let spawn target =
  let p =
    { domains = [||];
      lock = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      current = None;
      generation = 0;
      stop = false }
  in
  p.domains <-
    Array.init target (fun k ->
        Domain.spawn (worker p (worker_busy_counter k)));
  p

(* Lazily (re)start the workers, under [config] so that domains
   submitting at once never spawn two pools. Returns [None] when the
   effective parallelism is 1 — callers then run inline. *)
let ensure_pool () =
  let stale, p =
    locked (fun () ->
      let target = effective_jobs () - 1 in
      match !pool with
      | Some p when Array.length p.domains = target -> (None, Some p)
      | old ->
        pool := (if target < 1 then None else Some (spawn target));
        (old, !pool))
  in
  Option.iter stop_pool stale;
  p

(* ---- submission ---- *)

(* Run [f] marked as a worker: nested submissions from it stay inline,
   and [in_worker ()] answers the same whether a batch ran on the pool
   or inline on the calling domain. *)
let as_worker f =
  let saved = Domain.DLS.get worker_flag in
  Domain.DLS.set worker_flag true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set worker_flag saved) f

let run_inline n body =
  as_worker (fun () ->
    for i = 0 to n - 1 do
      body i
    done)

(* Publish the batch, drain it alongside the workers, wait for the
   chunks still in flight, and rethrow the first failure with its
   original backtrace. *)
let run_pooled p ~csize n body =
  let nchunks = (n + csize - 1) / csize in
  let b =
    { body; n; csize; nchunks;
      next = Atomic.make 0;
      pending = Atomic.make nchunks;
      failed = Atomic.make None }
  in
  Mutex.lock p.lock;
  if p.current <> None then begin
    Mutex.unlock p.lock;
    run_inline n body
  end
  else begin
    p.current <- Some b;
    p.generation <- p.generation + 1;
    Condition.broadcast p.wake;
    Mutex.unlock p.lock;
    Obs.Counter.incr jobs_counter;
    Obs.Counter.record_max queue_high_water_counter nchunks;
    as_worker (fun () -> drain p ~busy:main_busy_counter b);
    Mutex.lock p.lock;
    while Atomic.get b.pending > 0 do
      Condition.wait p.finished p.lock
    done;
    p.current <- None;
    Mutex.unlock p.lock;
    match Atomic.get b.failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_for ?chunk ~n body =
  if n <= 0 then ()
  else if n = 1 || in_worker () then run_inline n body
  else
    match ensure_pool () with
    | None -> run_inline n body
    | Some p ->
      let participants = Array.length p.domains + 1 in
      let csize =
        match chunk with
        | Some c when c >= 1 -> c
        | _ -> Int.max 1 (n / (participants * 8))
      in
      run_pooled p ~csize n body

let map_array ?chunk f a =
  let n = Array.length a in
  let out = Array.make n None in
  parallel_for ?chunk ~n (fun i -> out.(i) <- Some (f a.(i)));
  Array.map Option.get out

let map_list ?chunk f l =
  Array.to_list (map_array ?chunk f (Array.of_list l))
