(** Exact small-signal pole analysis.

    The linearised circuit is the matrix pencil [G + s C] of
    {!Stamps.pencil} (conductances and transconductances in G,
    capacitances and inductances in C), the same stamps the AC sweeps
    solve. Its finite generalised eigenvalues are the natural
    frequencies of the whole system — every pole of every loop at once.
    This is the ground truth the stability plot estimates one node at a
    time, so the two cross-validate each other (and do, in the test
    suite).

    The pencil is block-triangular in its strongly connected blocks
    ({!Blocks}), so {!compute} eigen-solves each diagonal block on its
    own and merges the lists. A one-block circuit (the op-amp) gets the
    whole-system solve bit for bit; on a chain of stages the per-block
    solve is what keeps the answer right (the whole-system solve of a
    20-stage chain read a stable chain as unstable). *)

type pole = {
  s : Complex.t;            (** pole location, rad/s *)
  freq_hz : float;          (** |s| / 2 pi *)
  zeta : float;             (** -Re(s)/|s|; negative for RHP poles *)
}

val compute : ?gmin:float -> ?max_hz:float -> Dcop.t -> pole list
(** All finite poles, the union of every diagonal block's, sorted by
    ascending |s|. Generalised eigenvalues with [|s| > 2 pi max_hz]
    (default 1e12 Hz) are artefacts of the singular pencil (nodes
    without storage) and are dropped. *)

val of_circuit : ?gmin:float -> ?max_hz:float -> Circuit.Netlist.t -> pole list

val complex_pairs : pole list -> pole list
(** One representative per complex-conjugate pair (positive imaginary
    part), sorted by natural frequency — the loops the paper's all-nodes
    scan hunts for. *)

val is_stable : pole list -> bool
val pp : Format.formatter -> pole -> unit
