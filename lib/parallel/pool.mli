(** Process-wide persistent worker-domain pool with one shared chunk
    cursor.

    The paper lists "distributed / computer farm run capability" as a
    feature in development; at workstation scale the bottleneck is not
    raw cores but scheduling: [Domain.spawn] costs milliseconds, so
    spawning fresh domains per frequency sweep (as the tool's first
    parallel path did) burns more time than the solves it distributes.

    This pool starts its worker domains lazily on the first parallel
    submission and keeps them for the life of the process. A submission
    publishes its index range as one batch split into fixed-size chunks;
    every participant, the submitting domain included, claims the next
    chunk from the batch's atomic cursor until none is left, so an
    uneven batch — one slow corner among fast ones — keeps the other
    participants busy instead of serialising a static bucket. Idle
    workers sleep on one condition variable; completion is an atomic
    countdown, and whoever finishes the last chunk wakes the submitter.

    Submissions made from inside a pool task run inline on the calling
    domain: an outer Monte-Carlo fan-out does not oversubscribe the
    machine with inner sweep parallelism. A top-level submission that
    finds another domain's batch still running runs inline too.

    Results are deterministic: a task writes only cells of its own index,
    so pooled and sequential executions perform bit-identical arithmetic. *)

val jobs : unit -> int
(** Configured parallelism, the submitting domain included. Defaults to
    [ACSTAB_JOBS] when set to a positive integer, else
    [Domain.recommended_domain_count ()]. [jobs () = 1] means every
    submission runs inline and no worker domain is ever started. *)

val set_jobs : int -> unit
(** Reconfigure the parallelism (clamped to at least 1) — the [--jobs N]
    CLI flag lands here. Existing workers are stopped; the next
    submission restarts the pool at the new size. Call only between
    submissions. *)

val effective_jobs : unit -> int
(** The parallelism the pool will actually use:
    [min (jobs ()) (Domain.recommended_domain_count ())] unless
    oversubscription is forced. OCaml 5 minor collections are
    stop-the-world across every domain, so running more domains than
    cores makes each GC wait on descheduled domains — asking for
    [-j 4] on one core used to run ~2.3x {e slower} than [-j 1]. The
    pool sizes itself to [effective_jobs ()] and runs inline when that
    is 1. *)

val set_oversubscribe : bool -> unit
(** Force the pool to honour [jobs ()] even beyond the core count.
    Meant for scheduler tests that need real worker domains on small CI
    machines; never an optimisation. *)

val parse_jobs : string -> int option
(** The exact grammar [ACSTAB_JOBS] accepts: an integer [>= 1] with
    optional surrounding whitespace. [None] for anything else (zero,
    negative, non-numeric, empty) — the environment reader then warns
    and falls back rather than silently clamping. Exposed pure so tests
    can pin the accepted grammar without mutating the environment. *)

val busy_workers : unit -> int
(** Participants (workers or the submitter) currently executing a
    chunk body — point-in-time state for the [pool.busy_workers]
    gauge sampled by the serve daemon. *)

val queued_chunks : unit -> int
(** Chunks of the live batch not yet claimed (a gauge sample). [0] when
    no batch is running. *)

val in_worker : unit -> bool
(** Whether the calling domain is currently executing a pool task (a
    worker domain, or the submitter while it helps drain chunks, or any
    domain inside an inline submission). *)

val parallel_for : ?chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n body] runs [body i] for every [i] in [0, n),
    distributed over the pool. [chunk] sets the chunk size (default:
    [n / (participants * 8)], at least 1). Runs inline when [n <= 1],
    when [effective_jobs () = 1], when called from inside a pool task,
    or when another domain's batch is still running; inline runs still
    set the worker flag for their duration. If any [body] raises,
    remaining chunks are skipped (best effort) and the first exception
    is re-raised on the submitter with its original backtrace. *)

val map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; element order is preserved. *)

val map_list : ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]; element order is preserved. *)

val shutdown : unit -> unit
(** Stop and join the worker domains. The pool restarts lazily on the
    next submission; useful before [exit] or in tests. *)

(** {1 Observability}

    The pool feeds [Obs.Counter]s (always on, coarse-grained — per chunk
    and per submission, never inside a task body):

    - [pool.jobs] — pooled submissions
    - [pool.chunks] — chunks executed (by workers or the submitter)
    - [pool.queue_high_water] — largest number of chunks in one
      submission
    - [pool.worker<k>.busy_ns] / [pool.main.busy_ns] — cumulative time
      spent executing chunk bodies per participant

    and the [pool.chunk_ms] histogram, one observation per chunk.

    An invalid [ACSTAB_JOBS] value prints a one-line warning to stderr
    naming the rejected value and the fallback, instead of being
    silently ignored — via [Obs.Events.warn_once] keyed by the variable
    name, so a long-running daemon warns once (and records a structured
    [Warn] event) rather than per call. *)
