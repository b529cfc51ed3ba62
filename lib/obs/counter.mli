(** Named monotonic counters with a process-global registry.

    Counters are always on (independent of {!Span.enabled}); incrementing
    one is a single atomic fetch-and-add and never allocates. [make] is
    idempotent: the same name always yields the same counter, so modules
    may create their counters at load time and tools may re-[make] them by
    name to read values. All operations are safe under
    [Parallel.Pool] domains. *)

type t

val make : string -> t
(** [make name] returns the counter registered under [name], creating it
    at zero on first use. Dotted names ([acplan.symbolic],
    [pool.chunks]) group related counters in reports. *)

val name : t -> string
val value : t -> int

val incr : t -> unit
val add : t -> int -> unit

val record_max : t -> int -> unit
(** [record_max t v] raises the counter to [v] if it is currently lower —
    use for high-water marks (queue depth, batch size). *)

val find : string -> t option
(** Look up a counter without creating it. *)

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val reset : unit -> unit
(** Zero every registered counter (tests and bench sections). *)
