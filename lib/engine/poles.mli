(** Exact small-signal pole analysis.

    The linearised circuit is the matrix pencil [G + s C] of
    {!Stamps.pencil} (conductances and transconductances in G,
    capacitances and inductances in C), the same stamps the AC sweeps
    solve. Its finite generalised eigenvalues are the natural
    frequencies of the whole system — every pole of every loop at once.
    This is the ground truth the stability plot estimates one node at a
    time, so the two cross-validate each other (and do, in the test
    suite). *)

type pole = {
  s : Complex.t;            (** pole location, rad/s *)
  freq_hz : float;          (** |s| / 2 pi *)
  zeta : float;             (** -Re(s)/|s|; negative for RHP poles *)
}

val system_matrices : ?gmin:float -> Dcop.t -> Numerics.Rmat.t * Numerics.Rmat.t
(** [(g, c)] of the pencil at the given operating point. *)

val compute : ?gmin:float -> ?max_hz:float -> Dcop.t -> pole list
(** All finite poles, sorted by ascending |s|. Generalised eigenvalues with
    [|s| > 2 pi max_hz] (default 1e12 Hz) are artefacts of the singular
    pencil (nodes without storage) and are dropped. *)

val of_circuit : ?gmin:float -> ?max_hz:float -> Circuit.Netlist.t -> pole list

val complex_pairs : pole list -> pole list
(** One representative per complex-conjugate pair (positive imaginary
    part), sorted by natural frequency — the loops the paper's all-nodes
    scan hunts for. *)

val is_stable : pole list -> bool
val pp : Format.formatter -> pole -> unit
