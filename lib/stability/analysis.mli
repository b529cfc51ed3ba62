(** Run modes of the stability tool (paper sections 4 and 6).

    "Single Node" probes one selected net, builds its stability plot,
    detects the peaks and estimates the phase margin. "All Nodes" probes
    every net of the design and produces the per-node peak list that the
    report generator turns into the paper's Table 2.

    Peaks found on the coarse sweep are optionally refined by re-probing a
    narrow log window around each peak at a much finer grid (the coarse
    grid alone biases sharp peaks low). Refinement is batched: nodes
    observing the same feedback loop peak at (nearly) the same natural
    frequency — the paper's loop-clustering insight — so their zoom
    windows are merged and re-probed together through one multi-RHS
    {!Probe.response_many} call per frequency group, sharing each
    per-point factorisation across every node of the loop.

    Each net is probed through its own strongly connected block of the
    pencil ({!Probe}, {!Engine.Blocks}). On the plan-backed solver paths
    a run mode compiles exactly one {!Engine.Ac_plan} per probed block,
    when its coarse scan first probes it, and reuses the set for every
    zoom window — one symbolic analysis per probed block for an entire
    run, refinement included ({!Engine.Ac_plan.totals} counters verify
    it); a block that holds no probed net is never compiled. It keeps
    one health meter per block, so each net is graded by the
    factorisations of its own block. *)

type options = {
  sweep : Numerics.Sweep.t;      (** coarse sweep (default 1 kHz - 1 GHz,
                                     30 points/decade) *)
  refine : bool;                 (** zoom re-probe around peaks (true) *)
  refine_ratio : float;          (** half-width of the zoom window as a
                                     frequency ratio (2.0); also the gap
                                     within which refinement jobs are
                                     merged into one batched window *)
  refine_per_decade : int;       (** zoom grid density (600) *)
  min_peak : float;              (** report peaks with |P| above this (0.2) *)
  dc_options : Engine.Dcop.options;
  parallel : [ `Auto | `Seq | `Par ];
  (** distribution of the sweeps over the persistent {!Parallel.Pool}.
      [`Auto] (the default) parallelises a block's sweep when the pool
      has workers and that sweep's volume clears
      {!Probe.auto_threshold}; [`Par] forces
      pooled execution, [`Seq] forces sequential. Results are
      bit-identical in every mode. *)
  backend : [ `Auto | `Dense | `Plan | `Kernel ];
  (** linear-solver path handed to {!Probe.response_many}. [`Auto] (the
      default) lets the probe layer pick: the compiled AC plan above
      {!Engine.Ac_plan.dense_cutoff} unknowns, dense below. The explicit
      values force one path — useful for cross-checking backends against
      each other on the same design. [`Kernel] compiles the plan one
      step further into the flattened {!Engine.Kernel} factor/solve
      program (bit-identical results to [`Plan], compiled once per run
      and shared by the coarse scan and every zoom window). *)
}

val default_options : options

type quality = Good | Degraded | Suspect
(** Numerical trustworthiness of a node's analysis, derived from the
    worst sampled factorisation health (reciprocal condition estimate,
    scaled residual — see {!Engine.Health}) across the run's sweeps of
    the node's block plus the node's own clamp count. [Good]: nothing noteworthy. [Degraded]:
    rcond below 1e-8, scaled residual above 1e-9, or clamped samples —
    peak numbers carry fewer digits than usual. [Suspect]: rcond below
    1e-11 or residual above 1e-5 — the linear solves themselves are not
    trustworthy and neither are the peaks derived from them. *)

val quality_string : quality -> string
(** ["good" | "degraded" | "suspect"] — the spelling used by reports,
    manifests and [acstab diff]. *)

type node_result = {
  node : Circuit.Netlist.node;
  block : int;
  (** the node's strongly connected block of the pencil
      ({!Probe.block_of}): nodes of different blocks share no poles, so
      they never belong to one loop ({!Loops.cluster}) *)
  peaks : Peaks.peak list;       (** refined peaks *)
  dominant : Peaks.peak option;  (** deepest complex-pole peak *)
  degraded : int;
  (** number of coarse-sweep magnitude samples that had to be clamped
      (underflowed notch, non-finite solve). [> 0] means the plot around
      those samples is a floor artefact: the node completed analysis but
      its peaks deserve scrutiny. Reports flag such nodes. *)
  quality : quality;
  (** numerical-health grade of this node's analysis (see {!quality}).
      The factorisation-health component is shared by all nodes of one
      block in a run (their solves go through the same per-point
      factors); the clamp component is per-node. *)
}

val single_node :
  ?options:options -> Circuit.Netlist.t -> Circuit.Netlist.node ->
  node_result

val all_nodes :
  ?options:options -> ?nodes:Circuit.Netlist.node list -> Circuit.Netlist.t ->
  node_result list
(** Probe every non-ground net (or the given subset). Nets the tool cannot
    probe meaningfully (probing reveals no finite response) are skipped.
    Results come back in net-name order. *)

val single_node_prepared :
  ?options:options -> ?plan:Engine.Ac_plan.set ->
  ?kernel:Engine.Kernel.set -> Probe.t -> Circuit.Netlist.node ->
  node_result
(** As {!single_node} with a pre-computed operating point. [plan] hands
    in a plan set (see {!shared_plan}) that a caller keeps across
    requests — the fingerprint-keyed [Tool.Cache] on the same deck — so
    a block an earlier request compiled costs no further symbolic
    analysis, and a block this request compiles is kept for the next;
    [kernel] does the same for the compiled kernel programs (see
    {!shared_kernel}) on the [`Kernel] backend. *)

val all_nodes_prepared :
  ?options:options -> ?nodes:Circuit.Netlist.node list ->
  ?plan:Engine.Ac_plan.set -> ?kernel:Engine.Kernel.set ->
  Probe.t -> node_result list

val live_window :
  Numerics.Waveform.Freq.t -> (Numerics.Waveform.Freq.t * int) option
(** The cleaning a run applies to a net's response before taking its
    stability plot: [None] for a net with no live response (its largest
    finite magnitude below a nano-ohm: a net an ideal source holds),
    otherwise the response with every sample below 1e-14 of that
    maximum, or non-finite, set to the floor, and the count of such
    samples (the result's [degraded]). A response with no such sample
    comes back as it is. *)

val coarse_plots :
  ?options:options -> ?plan:Engine.Ac_plan.set ->
  ?kernel:Engine.Kernel.set -> ?swept:Circuit.Netlist.node list ->
  Probe.t -> Circuit.Netlist.node list ->
  (Circuit.Netlist.node * Stability_plot.t) list
(** The coarse stability plots of these nets, in their order, as a run
    mode's coarse scan draws them: swept again over [options.sweep]
    through [plan] and [kernel] (as in {!single_node_prepared}), each
    response cleaned by {!live_window} before
    {!Stability_plot.of_response}. A net whose response a run skips is
    left out. Results keep no plot, so only a caller that prints one
    pays for this sweep.

    [swept] lists the nets the run probed (default: none but [nodes]).
    In each block that holds one of [nodes], the sweep solves the nets
    of [swept] there too, so that the block solves the run's batch: a
    solve gives a net the same bits whatever else the batch holds,
    except that a batch of one takes a path of its own. Each plot then
    equals, bit for bit, the one the run's coarse scan gave the net. *)

val shared_plan : options -> Probe.t -> Engine.Ac_plan.set option
(** The plan set a run mode would use for these options, one cell per
    block of the probe ({!Probe.plan}): [Some] exactly when the
    configured backend is plan-backed ([`Plan], [`Kernel], or [`Auto]
    above {!Engine.Ac_plan.dense_cutoff} unknowns of the whole system),
    [None] on the dense paths. Making it compiles nothing; each run
    compiles the blocks it probes into it, one symbolic analysis per
    block, and the set is valid for any sweep of the same prepared
    circuit. *)

val shared_kernel :
  options -> Engine.Ac_plan.set option -> Engine.Kernel.set option
(** The kernel set a run mode would use over that plan set, one cell
    per block: [Some] exactly when the configured backend is [`Kernel]
    and a plan set exists. Like the plan set it starts empty, and each
    run compiles the kernels of the blocks it probes (cheap: array
    flattening, no factorisation); the kernels, like the plans, are
    valid for any sweep of the same prepared circuit. *)
