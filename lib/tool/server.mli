(** The [acstab serve] daemon: {!Pipeline} behind a Unix socket.

    Newline-delimited JSON over a Unix-domain socket — one request per
    line, one response per line. Commands: [analyze] (single-node or
    all-nodes stability, answered from the shared {!Cache} when the
    deck fingerprint and options match a previous request), [lint],
    [loops], [diff] (two manifest files), [counters], [stats],
    [metrics] (Prometheus text exposition), [trace] (on-demand live
    Chrome-trace capture), [ping] and [shutdown]. See MANUAL section 9
    for the request/response schema.

    Failures never kill the daemon: a bad or failing request yields an
    ["ok": false] response whose [error.code] carries the CLI's
    exit-code contract (2 bad input, 3 analysis failure, 4 lint block).
    Even a request line that is not valid JSON gets a structured error,
    carrying the client's [id] when one can be salvaged from the
    broken text.

    An analyze answer splices the result entry's JSON text
    ({!Cache.rendering}, through [Json.Rendered]). The miss renders it
    without keeping it, the first hit renders and stores it, and every
    later hit encodes no manifest; each line equals the cold miss's
    line but for the request id and the verdict.

    Every response additionally carries a daemon-unique [request_id],
    which also keys the per-request line in the structured event log
    ({!Obs.Events}, schema [acstab-log/1]) and the [server.request]
    span, so logs, traces and client reports join on one value.

    Requests that arrive together are dispatched together through
    {!Parallel.Pool.map_list}, so concurrent clients analyze in
    parallel. *)

val protocol_version : string
(** ["acstab-serve/1"], echoed by [ping] and [stats]. *)

val max_line_bytes : int
(** 16 MiB. A connection whose unterminated request line grows past it
    is answered one code-2 error and closed; the daemon keeps serving
    the others. *)

val serve :
  ?capacity:int ->
  ?log:string ->
  ?slow_ms:float ->
  ?tick_s:float ->
  socket:string ->
  unit ->
  unit
(** Bind [socket] (unlinking a stale socket file left by a dead
    daemon), serve until a [shutdown] request, then close every
    connection and remove the socket file. [capacity] sizes each family
    of the daemon's LRU cache (default {!Cache.default_capacity}).
    [log] attaches the structured event log to a file (NDJSON, one
    line per request plus lifecycle events). [slow_ms] keeps span
    recording on and dumps the span tree of any request that takes at
    least that many milliseconds as a [server.slow_request] event.
    [tick_s] (default 1.0) is the background gauge-sampling interval
    (cache occupancy, pool busy/queue depth, in-flight requests).
    Raises [Failure] if [socket] exists and is not a socket;
    [Unix.Unix_error] on bind failures. *)

(** A minimal blocking client — the smoke test and scripting hook. *)
module Client : sig
  type t

  val connect : string -> t
  (** Connect to a daemon's socket path. *)

  val send : t -> Json.t -> unit
  (** Write one request line without waiting — several [send]s on
      distinct connections put several requests in flight at once. *)

  val recv_line : t -> string
  (** Read one response line (blocking), without its newline, as the
      daemon wrote it. Raises [Failure] on EOF. *)

  val recv : t -> Json.t
  (** [recv_line], parsed. Raises [Failure] on EOF or malformed
      JSON. *)

  val request : t -> Json.t -> Json.t
  (** [send] then [recv]. *)

  val close : t -> unit
end
