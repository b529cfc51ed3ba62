(** Structured event log (NDJSON, schema [acstab-log/1]).

    One event per occurrence — a served request, a warning, a daemon
    lifecycle transition — with a monotonic timestamp, a severity
    level and key=value fields. Events land in a fixed-size lock-free
    ring (recent history for in-process consumers) and, when a sink
    is attached ([--log FILE] / [ACSTAB_LOG]), are written through as
    one JSON object per line.

    Emission follows the same cost discipline as {!Span}: with no
    sink attached and the ring off, {!emit} returns after a single
    atomic load and allocates nothing (test-asserted), so hot paths
    may call it unconditionally. *)

type level = Debug | Info | Warn | Error

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  seq : int;  (** global emission order *)
  ts_ns : int;  (** monotonic, same clock as spans *)
  level : level;
  name : string;  (** dotted event name, e.g. [server.request] *)
  fields : (string * value) list;
}

val schema : string
(** ["acstab-log/1"]: one self-contained JSON object per line with
    [ts_ns], [seq], [level], [event] plus the event's fields. The
    first line written to a fresh sink is a [log.open] event naming
    this schema. *)

val enabled : unit -> bool
(** Whether {!emit} currently does any work (ring on or sink
    attached). One atomic load — use to guard field-list building. *)

val emit : ?level:level -> string -> (string * value) list -> unit
(** [emit name fields] records one event. Free when {!enabled} is
    false. Safe from any domain. *)

val level_name : level -> string

val line_of : event -> string
(** The NDJSON line for one event (no trailing newline). *)

(** {1 Ring buffer} *)

val enable_ring : unit -> unit
(** Keep the most recent events in memory even without a sink. *)

val disable_ring : unit -> unit

val recent : ?max:int -> unit -> event list
(** Snapshot of the ring, oldest first (at most the ring size, 1024). *)

val clear : unit -> unit
(** Drop the ring contents (sinks are unaffected). *)

(** {1 Sinks} *)

val set_sink : out_channel option -> unit
(** Attach (or with [None] detach) the NDJSON sink; a previously
    attached channel is closed. Each event is written and flushed as
    one line under a mutex. *)

val to_file : string -> unit
(** Open [path] for append and attach it as the sink. Raises
    [Sys_error] if the file cannot be opened. *)

val close_sink : unit -> unit

(** {1 Warn-once}

    Rate-limited operator warnings: the first call for a given [key]
    prints [message] to stderr and emits a [Warn] event; repeats are
    counted silently. Replaces per-call-site [Printf.eprintf] warnings
    that could repeat unboundedly in a long-running service. *)

val warn_once : key:string -> string -> unit

val warn_count : string -> int
(** How many times [key] has been warned about (0 = never). *)

val reset_warnings : unit -> unit
(** Forget all warn-once keys (tests). *)
