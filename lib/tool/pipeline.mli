(** The canonical analysis run, expressed as a value.

    One code path from deck to results, shared by the CLI subcommands,
    the [acstab serve] daemon and OCEAN sessions:

    {v deck -> load (parse + fingerprint + lint -> gate) -> analyze
       (DC op -> plan -> sweep -> peaks) -> results + manifest v}

    Failures are data ({!failure}, with {!exit_code} carrying the CLI's
    exit-code contract) rather than [exit] calls, so a resident server
    can answer a broken request and keep serving.

    Every stage memoizes through {!Cache}. [load] keys the [deck]
    family by the deck's origin (file or inline text, with its name)
    and its exact text with every [.include] expanded; the entry keeps
    the parsed deck, the text's SHA-256 fingerprint (computed once, on
    the miss; [deck.digests] counts them) and the lint findings, and
    [load] applies the gate to the findings on every request. Every
    other family is keyed by the fingerprint, the origin (an in-memory
    design has one of its own) and the options in force; results add
    the name the manifest records. [analyze] keeps the prepared probe
    (MNA + DC operating point + the pencil's blocks), the
    {!Engine.Ac_plan} set (one symbolic analysis per probed block,
    compiled when a request first probes it), the kernels likewise and
    the complete result set with its run manifest;
    the static signal-flow report has a family of its own. A warm
    repeat of an identical request runs no digest, no parse, no lint
    pass, no graph build, no DC solve and no symbolic analysis; a
    request that changes only the sweep or the probed nodes still
    reuses the operating point and the plan. Each {!outcome} carries
    the result entry it came from ([stored]), whose JSON text
    {!Cache.rendering} stores from the entry's first hit: the serve
    daemon answers with it, and the CLI never asks for it. *)

type deck =
  | Deck_file of string                 (** parse a netlist file *)
  | Deck_text of { name : string; text : string }
      (** parse netlist text (the serve protocol's inline decks) *)
  | Deck_circuit of { name : string; circ : Circuit.Netlist.t }
      (** an already-built design, fingerprinted through its canonical
          SPICE rendering (temperature included) *)

type lint_policy = { no_lint : bool; strict : bool }

val default_lint_policy : lint_policy
(** Gate on lint errors; warnings pass. *)

type loaded = {
  deck_name : string;
  deck_text : string;           (** with every [.include] expanded *)
  sha256 : string;
      (** fingerprint of [deck_text] — the prefix of every cache key
          but the [deck] family's, followed by the origin [load] read
          the deck from; a record built outside [load] keys as the
          inline deck [deck_name] *)
  circ : Circuit.Netlist.t;
  findings : Lint.Rule.finding list;
      (** what the gate ran (and the CLI prints); [[]] under [no_lint] *)
}

type failure =
  | Parse_failed of { message : string }        (** exit 2 *)
  | Usage_failed of { message : string }        (** exit 2 *)
  | Lint_blocked of { findings : Lint.Rule.finding list }  (** exit 4 *)
  | Analysis_failed of {
      message : string;
      likely_cause : Lint.Rule.finding list;
          (** lint findings that predicted the failure (singular-matrix
              translation), printed under a "likely cause:" header *)
    }  (** exit 3 *)

val exit_code : failure -> int
val failure_message : failure -> string

val load :
  ?cache:Cache.t -> ?policy:lint_policy -> deck -> (loaded, failure) result
(** Read, parse, fingerprint and lint-gate a deck. A file is read once;
    its text and an inline deck's have their [.include]s expanded
    before the lookup, so an edited included file is a new key and a
    new fingerprint. Parse and fingerprint run only on a [deck]-family
    miss in [cache] (default {!Cache.global}), and a hit reads the
    stored fingerprint; lint runs only when first needed, so a
    [no_lint] load pays for none. An in-memory design ([Deck_circuit])
    is fingerprinted on every call. [Error Lint_blocked] when a finding
    blocks under [policy] (errors always; warnings under [strict]),
    decided afresh on every call. *)

val lint_findings : ?cache:Cache.t -> loaded -> Lint.Rule.finding list
(** The deck's lint findings under {!Lint.Runner.default}, whatever the
    gate [load] applied — what manifests record and the serve [lint]
    command answers. Read from the entry [load] made for the deck's
    circuit, found by the circuit's identity and computed there once on
    first need; a [loaded] built outside [load] is linted afresh.
    Either way the graph-powered rules read the {!static_report}, so
    linting adds no graph build. *)

val guard : loaded -> (unit -> 'a) -> ('a, failure) result
(** Run an engine computation, translating its exceptions
    ([Dcop.No_convergence], dense/sparse [Singular], [Mna.Compile_error],
    [Invalid_argument]) into {!failure} values, with singular pivots
    named via {!Engine.Mna.unknown_name} and explained by the lint
    rules that predicted them. The long-tail CLI subcommands (ac, tran,
    noise, poles, ...) run their engine calls under this guard. *)

val static_report :
  ?cache:Cache.t -> ?bounds:Staticanalysis.Cycles.bounds -> loaded ->
  Staticanalysis.Report.t * bool
(** The deck's static signal-flow report (loops, probe cover,
    reachability), memoized in the [sfg] cache family keyed by the deck
    (fingerprint and origin) and the cycle bounds. The [bool] is the hit flag; a warm
    hit performs zero graph rebuilds ([sfg.builds] stays flat). *)

val manifest_of :
  ?cache:Cache.t -> loaded -> options:(string * string) list ->
  results:Stability.Analysis.node_result list -> wall_s:float ->
  cpu_s:float -> Manifest.t
(** The single manifest-emission helper: fingerprint, options, results,
    lint report ({!lint_findings}), structural loops section, telemetry
    snapshot — used by [analyze] itself, by the run command's crash
    reports, and by anything else that must record a run. *)

val cpu_seconds : unit -> float
(** Process CPU time (user + system), the manifest's [cpu_s] clock. *)

(** {1 Stability analyses (the cached path)} *)

type analysis =
  | Single_node of Circuit.Netlist.node
  | All_nodes of Circuit.Netlist.node list option
      (** [None] probes every net, [Some] a subset *)
  | Auto_nodes
      (** probe the static report's greedy cover — every enumerated
          feedback loop observed with the fewest probes; falls back to
          every net when the deck has no coverable loops *)

type outcome = {
  loaded : loaded;
  analysis : analysis;
  options : Stability.Analysis.options;
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
  wall_s : float;   (** of the run that produced [results] (a cache hit
                        reports the original, cold timing) *)
  cpu_s : float;
  cache : [ `Hit | `Miss ];
  stored : Cache.stored_result;
      (** the [result] cache entry [results] and [manifest] come from;
          {!Cache.rendering} of it is the manifest's JSON text, stored
          from the entry's first hit — what the serve daemon answers
          with *)
}

val analyze :
  ?cache:Cache.t -> ?options:Stability.Analysis.options -> loaded ->
  analysis -> (outcome, failure) result
(** The canonical run on a loaded deck, under {!guard}, memoized in
    [cache] (default: the process-global {!Cache.global}). *)

val analyze_exn :
  ?cache:Cache.t -> ?options:Stability.Analysis.options -> loaded ->
  analysis -> outcome
(** As {!analyze} but letting engine exceptions propagate — for callers
    with their own exception contract ({!Ocean.run} under
    {!Diagnostics.guard}). *)

val coarse_plots :
  ?cache:Cache.t -> outcome -> Circuit.Netlist.node list ->
  (Circuit.Netlist.node * Stability.Stability_plot.t) list
(** The coarse stability plots of these nets of the outcome's deck
    ({!Stability.Analysis.coarse_plots}, with the nets the outcome's run
    probed as [swept]), bit for bit those of the run's coarse scan,
    swept through the probe, plan and kernel that [cache] holds for the
    deck and options (made again if evicted, to the same bits). Results
    keep no plot; [--plot] and [--html] draw theirs from here, so only
    they pay for this sweep. *)

(** {1 One-step requests} *)

type request = {
  deck : deck;
  analysis : analysis;
  options : Stability.Analysis.options;
  policy : lint_policy;
}

val request :
  ?options:Stability.Analysis.options -> ?policy:lint_policy -> deck ->
  analysis -> request

val run : ?cache:Cache.t -> request -> (outcome, failure) result
(** [load] then [analyze]. *)
