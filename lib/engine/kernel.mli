(** Compiled per-circuit solve kernels: the sweep hot path, specialized.

    {!Ac_plan} amortises the symbolic analysis but still interprets the
    sparse factorisation point by point — per-point column buffers, a
    boxed value array, bounds-checked pattern walks, per-RHS copies.
    {!compile} flattens one plan's frozen elimination schedule (column
    order, pivot order, fill pattern, update order) into preallocated
    index arrays once per circuit; every frequency point then runs a
    straight-line, allocation-free factor/solve program over unboxed
    float planes, and {!run} batches whole chunks of the sweep through
    one workspace.

    The kernel is bit-identical to the [`Plan] backend: it replays the
    exact float operation sequence of [Scmat.refactor] and the batched
    solves (Smith's division, hypot magnitudes, sparsity skips, the
    single-RHS back-substitution form), and frequencies where the frozen
    pivot order goes numerically stale fall back to the same fresh
    pivoting factorisation the plan uses. Kernels are immutable after
    {!compile} and safe to share across Domain-parallel workers; all
    mutable state lives in per-worker {!workspace}s. *)

type t

val compile : Ac_plan.t -> t
(** Flatten the plan's symbolic analysis into the kernel program. Cheap
    (array flattening, no factorisation) — but cached per fingerprint by
    [Tool.Cache] so warm repeats compile nothing at all. *)

type set
(** One kernel per block of an {!Ac_plan.set}, each compiled from its
    block's plan when first needed and then kept, like the plans. *)

val on_demand : Ac_plan.set -> set
(** An empty kernel set over these plans: compiles nothing. *)

val plans : set -> Ac_plan.set
(** The plan set the kernels are compiled from. *)

val get : set -> int -> t
(** The kernel of block [b], compiling it (and its plan, if
    {!Ac_plan.need} has not) on first use. *)

val size : t -> int

val chunk : int
(** Suggested frequency points per {!run} invocation: large enough to
    amortise workspace setup, small enough to load-balance. *)

type workspace
(** Mutable per-worker scratch: unboxed RHS/solution planes plus the
    factor value arrays. Not thread-safe — one per concurrent chunk. *)

val workspace : t -> rhs:Complex.t array array -> workspace
(** Capture a right-hand-side batch (one column per probed node). The
    batch is read, never written. *)

val run :
  ?health:Health.meter -> workspace -> freqs:float array -> lo:int ->
  hi:int -> sel:int array -> outs:Complex.t array array -> unit
(** Advance sweep points [lo..hi-1]: for each frequency [freqs.(fk)]
    factor once, solve the whole batch, and write component [sel.(q)] of
    solution [q] to [outs.(q).(fk)]. Chunks over disjoint ranges write
    disjoint cells, so parallel execution is bit-identical to
    sequential. With [health], sampled points (see {!Health.tick})
    record rcond/growth/residual like the plan backend. *)

val solve_many :
  ?health:Health.meter -> t -> omega:float -> Complex.t array array ->
  Complex.t array array
(** Full solutions at one frequency (the {!Ac} backend and the
    equivalence tests); same values as [Ac_plan.solve_many] on the same
    plan, bit for bit. *)

type totals = {
  compiles : int;   (** kernel compilations (warm cache repeat: zero) *)
  points : int;     (** frequency points advanced *)
  fallback : int;   (** points re-pivoted because frozen pivots staled *)
  batch_max : int;  (** high-water points per invocation *)
}

val totals : unit -> totals
(** Process-wide counters since start-up; take deltas to assert the
    compile/point budget. Registered in the [Obs.Counter] registry as
    [kernel.compiles], [kernel.points], [kernel.fallback] and
    [kernel.batch_max]. *)
