(** Prometheus text exposition (format 0.0.4) for the observability
    registries, plus a validating parser for tests and [acstab top].

    Naming: every metric is the dotted registry name with
    non-alphanumeric bytes mapped to [_], prefixed [acstab_]. Counters
    gain a [_total] suffix; cumulative-nanosecond counters ([*_ns],
    e.g. [pool.main.busy_ns]) are exported in milliseconds as
    [*_ms_total] so all exported durations share one unit. Histograms
    render as summaries ([quantile="0.5"|"0.9"|"0.99"] rows plus
    [_count]) with a companion [<name>_max] gauge for the exact
    maximum. *)

val render :
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  ?histograms:(string * Histogram.summary) list ->
  unit ->
  string
(** The exposition text. Each omitted argument defaults to the live
    registry snapshot ({!Counter.snapshot}, {!Gauge.snapshot},
    {!Histogram.snapshot}); pass explicit lists to golden-test the
    exact output for a fixed registry. *)

val metric : string -> string
(** [metric "pool.chunk_ms"] = ["acstab_pool_chunk_ms"] — the exported
    base name for a registry name (before any [_total] suffix). *)

type sample = {
  metric_name : string;
  labels : (string * string) list;
  value : float;
}

val parse : string -> (sample list, string) result
(** Parse exposition text back into samples: comments and blank lines
    are skipped, every other line must be
    [name[{k="v",...}] value]. [Error] on the first malformed line. *)

val find : ?labels:(string * string) list -> string -> sample list -> float option
(** First sample whose name matches and whose labels include all of
    [labels]. *)
