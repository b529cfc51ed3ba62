(** Timed spans with per-domain buffers.

    Tracing is off by default. When off, {!enter} returns [0] and
    {!leave} returns immediately, so instrumented hot paths pay one
    atomic load and zero allocations (asserted in the test suite).
    When on, each domain records into its own buffer; {!drain} merges
    all buffers into one timestamp-sorted list. *)

type event = {
  name : string;
  ts_ns : int;  (** start, monotonic ns *)
  dur_ns : int;
  tid : int;  (** recording domain id *)
  args : (string * int) list;  (** small integer annotations *)
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val enter : unit -> int
(** Start timestamp for a span, or [0] when tracing is disabled. *)

val leave : ?args:(string * int) list -> string -> int -> unit
(** [leave name t0] records a span begun at [t0 = enter ()]. No-op when
    [t0] is [0] or tracing was disabled in between. *)

val with_ : ?args:(string * int) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] wraps [f ()] in a span; records on exception too. *)

val drain : unit -> event list
(** All recorded events from every domain, sorted by start time.
    Does not clear the buffers. *)

val events : unit -> event list
(** Non-destructive snapshot, identical to {!drain}. Take it once and
    feed every consumer (trace export, metrics) from the same list. *)

val clear : unit -> unit
(** Discard all recorded events. *)
