(** The stability plot (paper eq 1.3).

    Given the magnitude of a node's AC response to a current-probe
    excitation, the stability function
    {v P(w) = d2 ln|T| / d (ln w)2 v}
    filters out real poles and zeros (shallow -0.5/+0.5 excursions) while
    every complex-pole pair produces a sharp negative peak of value
    -1/zeta^2 at its natural frequency (eq 1.4) and every complex-zero pair
    a positive peak. *)

type t = {
  freqs : float array;
  mag : float array;   (** |T(j 2 pi f)| — the probed response *)
  p : float array;     (** the stability function at each frequency *)
  clamped : int;       (** magnitude samples clamped before the log-log
                           derivative (underflowed notches, non-finite
                           solver output); [> 0] marks the plot degraded *)
}

val of_response : Numerics.Waveform.Freq.t -> t
(** Compute the plot from a complex response. Magnitude samples that are
    zero, negative, or non-finite (deep-notch underflow, ill-conditioned
    solves) are clamped to a floor instead of raising; the count is
    recorded in [clamped]. The plot shares the response's frequency
    array. *)

val of_magnitude : freqs:float array -> mag:float array -> t
(** The plot holds [freqs] and [mag] as given, uncopied; neither is
    written to afterwards, here or by any reader of a plot. *)

val degraded : t -> bool
(** True when any magnitude sample was clamped; P near those samples is
    a floor artefact, not circuit behaviour. *)

val value_at : t -> float -> float
(** Log-frequency interpolation of the stability function. Raises
    [Invalid_argument] for frequencies outside the swept range — the
    previous behaviour silently clamped to the endpoint value, fabricating
    P beyond the sweep. Use {!value_at_opt} to probe the range. *)

val value_at_opt : t -> float -> float option
(** {!value_at} returning [None] outside the swept range. *)

val global_minimum : t -> float * float
(** [(frequency, value)] of the most negative point (parabolically
    refined when interior). *)

val pp : Format.formatter -> t -> unit
(** Tabular dump (frequency, |T|, P). *)
