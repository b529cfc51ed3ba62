(** Compiled AC solve plan: the fast path of the sweep pipeline.

    Sums the small-signal pencil of {!Stamps.pencil} ({!Mna.elems} plus
    the linearised DC-operating-point primitives) once into a
    frequency-parameterised sparse skeleton — a constant conductance
    part [G] and a reactive part [C] sharing one precomputed CSC
    pattern, so the system at angular frequency [w] is [G + jwC]. Each frequency point of a sweep then costs an O(nnz)
    numeric fill plus one numeric refactorisation along a symbolic
    analysis computed once per plan; one factor serves every probed node
    at that frequency through a multi-RHS batch solve.

    A plan holds either the whole system ({!compile}) or one diagonal
    block of the pencil's block-triangular form ({!set}, one cell per
    block of {!Blocks}, filled when a probe first needs that block):
    the probes solve each net against its own block, and a one-block
    circuit's plan is the whole-system plan bit for bit.

    Plans are immutable after compilation, so one plan may be shared by
    Domain-parallel sweep workers without locking. *)

type t

type set
(** The plans of a circuit's blocks, one cell per block of a
    {!Blocks.t}, each compiled when first needed and then kept. A set
    holds no plan for a block that nothing has asked for. Safe to share
    between domains: two domains that need one block at once may both
    compile it, and store equal plans. *)

val on_demand :
  ?gmin:float -> ?omega_ref:float -> op:Dcop.t -> blocks:Blocks.t ->
  Mna.t -> set
(** An empty set over [blocks]: compiles nothing. [gmin] (default
    1e-12) is added on node diagonals exactly as in the dense path.
    [omega_ref] (default 2*pi*1e6) seeds each block's pivot order; any
    in-band frequency works — frequencies where the frozen order goes
    numerically stale re-pivot automatically. *)

val need : set -> int list -> unit
(** Compile every listed block that has no plan yet, from a single fold
    of the pencil, one symbolic analysis each (the [acplan.symbolic]
    counter moves once per block compiled). A list whose blocks are all
    compiled costs nothing. A block's plan has the same bits whichever
    call compiles it, and whatever else that call compiles. *)

val get : set -> int -> t
(** The plan of block [b], compiled alone first if no call has. Call
    {!need} first with every block a sweep will read, so they share one
    fold. *)

val count : set -> int
(** Number of blocks (cells) of the set. *)

val compile_blocks :
  ?gmin:float -> ?omega_ref:float -> op:Dcop.t -> blocks:Blocks.t ->
  Mna.t -> t array
(** Every block's plan (indexed like the blocks): {!need} on a fresh
    {!on_demand} set with all of its blocks. On [Blocks.whole] the one
    plan is bit for bit the {!compile} plan. *)

val compile : ?gmin:float -> ?omega_ref:float -> op:Dcop.t -> Mna.t -> t
(** The whole system as one plan: {!compile_blocks} on
    [Blocks.whole]. Sources that drive the system, as in {!Ac}, need
    every unknown, not one diagonal block. *)

val omega_ref : float array -> float
(** Mid-band reference frequency of a sweep's points: [2 pi] times the
    geometric mean of the first and last frequency ([2 pi * 1 MHz] for
    an empty sweep). Every sweep that compiles a plan seeds its pivot
    order here. *)

val dense_cutoff : int
(** Unknown count at or below which callers should prefer the dense
    oracle path over plan compilation. *)

val matrix_at : t -> omega:float -> Numerics.Scmat.t
(** Numeric fill [G + jwC] of the shared pattern (O(nnz); fresh value
    array per call, pattern arrays shared). *)

val solve_many :
  ?health:Health.meter ->
  t -> omega:float -> Complex.t array array -> Complex.t array array
(** One factorisation, many right-hand sides: the batched probing
    solve. [solve_many t ~omega bs] runs one numeric refactorisation at
    [omega], falling back to a fresh pivoting factorisation when the
    frozen pivot order is numerically inadequate at this frequency
    (counted in {!totals}), and solves every excitation of [bs]. With
    [health], sampled points (see {!Health.tick}) record an rcond
    estimate, pivot growth and a scaled residual of the first
    right-hand side. *)

val solve :
  ?health:Health.meter -> t -> omega:float -> Complex.t array ->
  Complex.t array

val pivot_tol : float
(** Relative pivot floor under which a frozen pivot order is declared
    stale for a frequency point ({!solve_many} then falls back to a
    fresh pivoting factorisation). Exported so {!Engine.Kernel} applies the
    identical stale-pivot test on its flattened schedule. *)

val skeleton : t -> int array * int array * float array * float array
(** [(colptr, rowidx, gvals, cvals)] — the shared CSC skeleton behind
    the plan, uncopied. Read-only: mutating any of these breaks every
    worker sharing the plan. Intended for {!Engine.Kernel.compile}. *)

val symbolic : t -> Numerics.Scmat.symbolic
(** The frozen one-per-plan symbolic analysis (same sharing caveat as
    {!skeleton}). *)

val mag_inf : Complex.t array -> float
(** Largest magnitude of a complex vector (the infinity norm the health
    residuals are scaled by). *)

val record_health :
  ?meter:Health.meter -> Numerics.Scmat.t -> Numerics.Scmat.factor ->
  x:Complex.t array -> b:Complex.t array -> unit
(** Record one sampled sparse factorisation's health: an rcond
    estimate, pivot growth and the scaled residual of solution [x]
    against right-hand side [b]. Used by {!solve_many},
    {!point_health} and the fallback factorisations of
    {!Engine.Kernel}. *)

val point_health :
  ?meter:Health.meter -> t -> omega:float -> x:Complex.t array ->
  b:Complex.t array -> unit
(** Out-of-band health probe for sampled kernel points: rebuilds a
    factor at [omega] to record rcond/growth plus the scaled residual of
    solution [x] against right-hand side [b]. Moves no {!totals}
    counters. *)

type totals = {
  symbolic : int;  (** symbolic analyses (one per plan, so one per block
                       of a plan set, + fallbacks) *)
  numeric : int;   (** numeric factorisations (one per frequency point) *)
  fallback : int;  (** points where frozen pivots were re-derived *)
  rhs : int;       (** right-hand sides solved *)
}

val totals : unit -> totals
(** Process-wide counters since start-up; take deltas around a sweep to
    assert its factorisation budget (the tests do). The
    counters live in the [Obs.Counter] registry as [acplan.symbolic],
    [acplan.numeric], [acplan.fallback] and [acplan.rhs] (plus the
    high-water mark [acplan.rhs_batch_max]), so traces, [--metrics]
    output and diagnostics reports carry the same values. Note that
    [Obs.Counter.reset] zeroes them. *)
