(** AC current-probe excitation of circuit nets (paper section 2).

    "The technique excites selected or all circuit nodes consecutively by
    applying an AC-current signal source to the tested node without
    changing the circuit under inspection at all." The measured response is
    the net's driving-point transimpedance Z(j w): an ideal current probe
    adds nothing to the system matrix, only to the excitation vector, so
    the all-nodes mode factors the matrix once per frequency and back-
    substitutes one RHS per net. A netlist-level path (attach a real
    [Isource] probe and run a plain AC analysis) is kept as the reference
    implementation; both agree to solver precision.

    The response at net k, T_k(s) = e_k' (G + sC)^-1 e_k, depends only on
    the diagonal block of the pencil's block-triangular form that holds k
    ({!Engine.Blocks}): the per-observation-node view. So every probe
    solves each net against its own block. {!prepare} finds the blocks
    once; {!plan} makes the set of their {!Engine.Ac_plan}s, empty;
    {!response_many} sweeps each group of probed nets against its block
    on every backend, dense included, and never compiles or factors a
    block it does not probe. A one-block circuit (the op-amp, the RC ladder) runs the
    whole system with the identity map, bit for bit as a whole-system
    solve. *)

type t = {
  mna : Engine.Mna.t;
  op : Engine.Dcop.t;
  blocks : Engine.Blocks.t;
  (** the strongly connected blocks of the pencil at [op] *)
}

val prepare :
  ?dc_options:Engine.Dcop.options -> Circuit.Netlist.t -> t
(** Compile the design, find its operating point and split the pencil
    there into its blocks, once. Pre-existing AC stimuli are irrelevant
    to probing (the probe provides its own excitation and ignores the
    sources' AC values — the tool's "auto-zero all AC sources"
    feature). *)

val block_of : t -> Circuit.Netlist.node -> int
(** The block that holds a (non-ground) net. *)

val response :
  ?gmin:float -> t -> sweep:Numerics.Sweep.t -> Circuit.Netlist.node ->
  Numerics.Waveform.Freq.t
(** Driving-point transimpedance of one net across a sweep. *)

val plan :
  ?gmin:float -> t -> sweep:Numerics.Sweep.t -> Engine.Ac_plan.set
(** The probe's plan set, one cell per block of [t.blocks], seeded at
    the sweep's mid-band frequency. It compiles nothing: each sweep
    that probes a block compiles that block's plan, if no earlier sweep
    has. The set is valid for {e any} sweep of the same circuit — hand
    it to several {!response_many} calls (a coarse scan plus its zoom
    refinements) to pay for exactly one symbolic analysis per probed
    block in total. *)

val auto_threshold : int
(** Arithmetic volume (unknowns x points x probed nets of one block's
    sweep) above which [`Auto] distributes that sweep over the
    {!Parallel.Pool}. *)

val estimated_work : unknowns:int -> points:int -> nets:int -> int
(** The volume proxy behind the [`Auto] decision:
    [unknowns * points * max 1 nets]. *)

val auto_decision : unknowns:int -> points:int -> nets:int -> bool
(** Exactly the seq/par choice [`Auto] makes for a sweep of this shape:
    true iff {!estimated_work} clears {!auto_threshold}, the calling
    domain is not already a pool worker, and
    [Parallel.Pool.effective_jobs () > 1] — the {e effective} count, so
    [`Auto] never selects pooled execution that the core-count clamp
    would make pointless (or, before the clamp existed, actively
    harmful). Counters: every sweep increments [probe.sweeps]; sweeps
    that actually run pooled also increment [probe.sweeps_par], so a
    manifest or [--metrics] snapshot records which mode really ran. *)

val response_many :
  ?gmin:float -> ?backend:[ `Dense | `Plan | `Kernel ] ->
  ?parallel:[ `Auto | `Seq | `Par ] -> ?plan:Engine.Ac_plan.set ->
  ?kernel:Engine.Kernel.set -> ?health:Engine.Health.meter array ->
  t -> sweep:Numerics.Sweep.t -> Circuit.Netlist.node list ->
  (Circuit.Netlist.node * Numerics.Waveform.Freq.t) list
(** Shared-factorisation probing of many nets, block by block: the nets
    a block holds are swept together against that block, and the
    results come back in the order of [nodes].

    [`Plan] — the default above {!Engine.Ac_plan.dense_cutoff}
    unknowns of the whole system — sweeps each probed block through its
    {!Engine.Ac_plan}: one symbolic analysis per block, one O(nnz)
    numeric fill and refactorisation per frequency point of each probed
    block, and all of a block's probed nets solved as one multi-RHS
    batch per point. The plans of the probed blocks that the set does
    not hold yet are compiled first, from one fold of the pencil.
    [`Dense] (the default for tiny systems) is the oracle path: a dense
    LU of the probed block at every point. [`Kernel] compiles each
    probed block's plan one step further into an {!Engine.Kernel} — the
    flattened, allocation-free factor/solve program — and advances the
    sweep in chunks of {!Engine.Kernel.chunk} points per kernel
    invocation; its results are bit-identical to [`Plan]. Passing
    [plan] (see {!val:plan}) shares its compiled blocks, and fills it
    with the ones this sweep adds, and implies the [`Plan] backend
    unless [backend] overrides it; passing [kernel] likewise implies
    [`Kernel] and shares its kernels and their plans. [plan], [kernel]
    and [health] must have one entry per block of [t.blocks]
    ([Invalid_argument] otherwise).

    [parallel] spreads each block's independent frequency points over
    the persistent {!Parallel.Pool} in chunks claimed from one shared
    cursor (the paper's "distributed run" capability at multicore
    scale). [`Auto] (the default) goes parallel only when the pool has
    workers and the block sweep's volume clears {!auto_threshold};
    results are bit-identical to sequential either way.

    [health] holds one meter per block: each accumulates the sampled
    per-factorisation health (see {!Engine.Health}) of its block's
    sweeps, and the analysis layer grades each net from its own block's
    worst-case values. *)

val response_via_netlist :
  ?gmin:float -> ?dc_options:Engine.Dcop.options -> Circuit.Netlist.t ->
  sweep:Numerics.Sweep.t -> Circuit.Netlist.node -> Numerics.Waveform.Freq.t
(** Reference path: zero the design's AC stimuli, attach a unit AC current
    source to the net ({!Circuit.Transform.with_ac_current_probe}) and run
    a normal AC analysis. *)
