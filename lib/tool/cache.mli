(** Content-keyed caching of the analysis pipeline's expensive
    stages.

    Keys are opaque strings built by {!Pipeline}. A [deck] key is the
    deck's origin (file or inline text, and the name) plus its exact
    text with every [.include] expanded; the entry keeps that text's
    SHA-256 fingerprint, computed once when the entry is made. Every
    other family's key starts from that fingerprint and the origin and
    adds the options in force. So an edited deck, an edited included
    file or a changed option is simply a different key — content
    addressing is the whole invalidation story — and a file and an
    inline deck that share a text, but parse differently, never share
    an entry. Six families are memoized independently: parsed decks
    with their fingerprints and lint findings, prepared probes (MNA
    compile + DC operating point + the pencil's blocks), compiled
    {!Engine.Ac_plan} symbolic analyses and compiled {!Engine.Kernel}
    solve programs (each entry one cell per block, holding only the
    blocks some request has probed), complete result sets with their
    run manifests, and static signal-flow reports
    ({!Staticanalysis.Report.t}, the loops and the facts its readers
    print, not the graph). A warm request therefore runs no
    SHA-256, no parse, no lint pass and no graph build ([deck] hit;
    [deck.digests] stays flat), and a warm [result] hit costs zero DC
    solves and zero symbolic analyses — the serve smoke test asserts
    exactly that from the [sfg.builds] / [dcop.solves] /
    [acplan.symbolic] counters — and a warm [kernel] hit costs zero
    kernel compiles ([kernel.compiles] stays flat). A later request
    that probes another block of a cached deck compiles that block
    alone into the same entry. A [result] entry also keeps its JSON
    text ({!rendering}) from its first hit on, so from the second hit
    on a warm serve answer encodes nothing ([manifest.renders] stays
    flat); the miss that made the entry keeps no text.

    Hit/miss/eviction telemetry flows through always-on
    {!Obs.Counter}s: [cache.deck.hits], [cache.deck.misses],
    [cache.deck.evictions], and likewise for the [op], [plan],
    [kernel], [result] and [sfg] families.

    All operations are safe to call concurrently (the serve daemon
    calls in from {!Parallel.Pool} workers). The compute thunk runs
    outside the lock: two simultaneous cold requests for one key may
    both compute, and the later insert wins — equivalent values, so
    only duplicated work, never a wrong answer. *)

type t

type result_entry = {
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
}

type deck_entry = {
  circ : Circuit.Netlist.t;  (** the parsed deck *)
  sha256 : string;
      (** SHA-256 of the expanded text, the prefix of the deck's keys in
          every other family *)
  lint : Lint.Rule.finding list option Atomic.t;
      (** its lint findings under {!Lint.Runner.default}, [None] until
          first needed (a [no_lint] request never pays for them) *)
}

val default_capacity : int
(** Per-family LRU capacity when [create] is not told otherwise (64). *)

val create : ?capacity:int -> unit -> t
(** A fresh cache; [capacity] bounds each family separately, evicting
    least-recently-used entries on insert. *)

val global : unit -> t
(** The process-wide cache shared by CLI one-shots and {!Session}s. The
    serve daemon uses it too, so a daemon and in-process sessions agree
    on warm state. *)

(** Each accessor returns the cached or computed value plus a hit flag
    ([true] = served from cache, compute not called). *)

val deck : t -> key:string -> (unit -> deck_entry) -> deck_entry * bool
(** Parsed decks, keyed by the exact expanded text plus the two parse
    inputs outside the text (file or inline, and the name that becomes
    the title). A hit costs no digest, parse, lint or graph build. *)

val op :
  t -> key:string -> (unit -> Stability.Probe.t) ->
  Stability.Probe.t * bool

val plan :
  t -> key:string -> (unit -> Engine.Ac_plan.set option) ->
  Engine.Ac_plan.set option * bool
(** Plan sets, one cell per block of the prepared probe
    ({!Stability.Analysis.shared_plan}). An entry starts empty, and the
    requests that use it compile into it the blocks they probe, so it
    holds the plans of probed blocks only. [None] is a cacheable
    answer: it records "these options select the dense backend",
    sparing the decision logic on the next request. *)

val kernel :
  t -> key:string -> (unit -> Engine.Kernel.set option) ->
  Engine.Kernel.set option * bool
(** Kernel sets over the [plan] entry's set, one cell per block and
    filled the same way, keyed one step below [plan] (same fingerprint
    plus the kernel tag); [None] records "these options do not select
    the kernel backend". *)

type rendering = {
  manifest_json : string;  (** [Json.to_string (Manifest.json manifest)] *)
  nodes_json : string;     (** the [nodes] array of that manifest, rendered *)
}

type stored_result = {
  entry : result_entry;
  rendered : rendering option Atomic.t;
      (** the entry's JSON text, [None] until {!rendering} first runs
          for a hit; it lives in the entry's slot, so eviction drops it
          with the entry *)
}

val result :
  t -> key:string -> (unit -> result_entry) -> stored_result * bool

val rendering : hit:bool -> stored_result -> rendering
(** The entry's JSON text. [hit] is the flag {!result} returned. The
    miss that made the entry renders it and stores nothing; the first
    hit renders it again and stores it beside the entry, from any
    domain, so every later hit returns the same strings without
    encoding anything. Each rendering counts once in the
    [manifest.renders] counter (two domains racing on a first hit may
    both render, and store equal text). The serve daemon splices it into
    analyze answers ([Json.Rendered]); the CLI never asks, so it
    renders nothing. *)

val sfg :
  t -> key:string -> (unit -> Staticanalysis.Report.t) ->
  Staticanalysis.Report.t * bool
(** Static signal-flow reports: loop enumeration and probe cover are
    pure functions of the deck text and the cycle bounds, so a warm hit
    is a zero-rebuild answer — the [sfg.builds] counter stays flat. *)

val clear : t -> unit

val capacity : t -> int
(** The per-family LRU bound this cache was created with. *)

type family_stats = {
  family : string;
  (** ["deck"], ["op"], ["plan"], ["kernel"], ["result"] or ["sfg"] *)
  entries : int;       (** live entries right now *)
  capacity : int;      (** LRU bound (same for every family) *)
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> family_stats list
(** One record per family, in declaration order. Hit/miss/eviction
    counts read the process-global counters, so they aggregate across
    caches that share the registry. *)

val sample_gauges : t -> unit
(** Publish each family's occupancy into the [Obs.Gauge] registry as
    [cache.<family>.entries] and [cache.<family>.capacity] — called by
    the serve daemon's background tick so Prometheus exposition and
    [acstab top] see live occupancy without touching the cache lock on
    every scrape. *)
