(** Small-signal AC analysis.

    Linearises the circuit at its DC operating point and solves the
    pencil [G + jwC] of {!Stamps.pencil} at every sweep frequency, driven
    by the AC magnitudes/phases of the independent sources. *)

type result = {
  mna : Mna.t;
  op : Dcop.t;
  freqs : float array;
  solutions : Complex.t array array;  (** [solutions.(k)] at [freqs.(k)] *)
}

val run :
  ?dc_options:Dcop.options -> ?gmin:float ->
  ?backend:[ `Dense | `Plan | `Kernel ] ->
  sweep:Numerics.Sweep.t -> Circuit.Netlist.t -> result
(** Compile, find the operating point, and sweep. Raises
    {!Dcop.No_convergence} / {!Mna.Compile_error} like its parts. *)

val run_compiled :
  ?op:Dcop.t -> ?gmin:float -> ?backend:[ `Dense | `Plan | `Kernel ] ->
  sweep:Numerics.Sweep.t -> Mna.t -> result
(** Sweep a pre-compiled circuit, reusing a known operating point. The
    default backend compiles an {!Ac_plan} (one symbolic analysis per
    sweep, one numeric refactorisation per point) for systems above
    {!Ac_plan.dense_cutoff} unknowns and keeps the dense per-point LU
    below it; [`Dense] forces the oracle path, [`Kernel] further
    flattens the plan into the {!Kernel} straight-line program
    (bit-identical values to [`Plan]). *)

val matrix_at :
  Mna.t -> Linearize.prim list -> gmin:float -> omega:float ->
  Numerics.Cmat.t
(** The dense small-signal system [G + jwC] at angular frequency
    [omega], one complex add per {!Stamps.pencil} entry (sources
    contribute nothing: excitations are separate RHS vectors). The
    dense oracle path of the sweeps, the probes and the noise
    analysis; callers linearise once per sweep and pass the
    primitives in. *)

val block_matrix_at :
  Blocks.t -> int -> Mna.t -> Linearize.prim list -> gmin:float ->
  omega:float -> Numerics.Cmat.t
(** [block_matrix_at blocks b ...] is diagonal block [b] of
    {!matrix_at}, at the block's local indices, summed in the same
    order: on [Blocks.whole n] block 0 is {!matrix_at} bit for bit. The
    probe's dense path solves each probed net against its own block. *)

val factor_at :
  ?gmin:float -> op:Dcop.t -> omega:float -> Mna.t -> Numerics.Cmat.factor
(** LU factor of the small-signal system at one angular frequency. Probing
    analyses (the stability tool's all-nodes mode) solve this factor
    against many excitation vectors — a current probe only contributes to
    the right-hand side. *)

val dense_health :
  ?meter:Health.meter -> Numerics.Cmat.t -> Numerics.Cmat.factor ->
  x:Complex.t array -> b:Complex.t array -> unit
(** Record one sampled dense factorisation's health (rcond estimate,
    pivot growth, scaled residual of [x] against [b]); mirrors
    {!Ac_plan.record_health} so node grades do not depend on the
    backend. *)

val v : result -> Circuit.Netlist.node -> Waveform.Freq.t
(** Node-voltage response across the sweep. Raises [Invalid_argument]
    naming the net when it is unknown or ground (matching
    {!Stability.Probe.response_many}) rather than returning a silent
    all-zero waveform. *)

val vdiff : result -> Circuit.Netlist.node -> Circuit.Netlist.node ->
  Waveform.Freq.t

val branch_i : result -> string -> Waveform.Freq.t
(** Branch current of a voltage-defined device. *)
