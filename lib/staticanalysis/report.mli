(** The static signal-flow report: loops, probe cover, reachability.

    [analyze] runs the three static passes over a netlist's {!Sfg} —
    no DC solve, no sweep:

    + {b Loop enumeration.} Elementary cycles ({!Cycles.enumerate})
      within the strongly connected components that contain at least
      one gain edge — purely passive meshes cannot produce a resonant
      feedback peak and are skipped wholesale. A cycle qualifies as a
      feedback loop when at least one of its hops carries a gain edge;
      loops are ranked by structural gain order (gain hops first),
      then by id, and classified {e local} (all member nets within one
      device's terminals — a follower or mirror loop) or {e global}.
    + {b Probe cover.} A greedy hitting set over the loops' probeable
      (non-pinned) member nets: probing every cover net observes every
      enumerated loop. This is what [--nodes auto] analyzes instead of
      every net of the design.
    + {b Reachability.} Nets not forward-reachable from any
      independent-source terminal are undrivable — stimulus cannot
      reach them. Skipped ([None]) for source-free fixtures.

    Each pass is timed by an {!Obs.Span} ([sfg.build], [sfg.cycles],
    [sfg.cover]) and every graph construction bumps the [sfg.builds]
    counter — the cache tests assert a warm repeat leaves it flat.

    The report keeps what its readers print and nothing else: the
    passes' results, the graph's net and edge counts and pinned nets
    ([acstab loops]), and the verdict on each [.stab] target (the
    [undrivable-probe] lint rule). The {!Sfg.t} they were read from is
    not kept, so a cached report holds no graph. *)

type loop_kind =
  | Global
  | Local of string  (** confined to this device's terminals *)

val kind_string : loop_kind -> string
(** ["global"] or ["local:DEV"] — the spelling used by reports,
    manifests and JSON. *)

type loop = {
  id : string;             (** member nets joined with [">"], starting at
                               the lexicographically smallest *)
  nets : string list;      (** cycle order, as in [id] *)
  devices : string list;   (** devices on the loop's hops, sorted *)
  gain_order : int;        (** hops carrying a gain edge (>= 1) *)
  kind : loop_kind;
  probeable : string list; (** non-pinned member nets, sorted *)
}

(** What the graph says about a net named by a [.stab] card. *)
type target =
  | Absent               (** no such net in the graph (ground included) *)
  | Pinned of string option
      (** voltage-pinned, by this driver ({!Sfg.pinning_driver}) *)
  | Unreachable
      (** no independent source reaches it (the deck has some) *)
  | Drivable

type t = {
  nets : int;                   (** vertices of the graph (non-ground nets) *)
  edges : int;                  (** kept edges, after pinned-net pruning *)
  pinned : string list;         (** {!Sfg.pinned_nets} *)
  loops : loop list;            (** gain order descending, then id *)
  truncated : bool;             (** a {!Cycles.bounds} bound was hit *)
  cover : string list;          (** greedy probe cover, selection order *)
  uncovered : loop list;        (** loops with no probeable net *)
  undrivable : string list option;
      (** nets unreachable from every source terminal; [None] when the
          deck has no independent sources *)
  open_gain : string list;
      (** devices with gain edges, none of which lies inside any
          strongly connected component — controlled sources outside
          every loop *)
  stab_targets : (string * target) list;
      (** the nets named by [.stab] cards, in deck order, each with its
          verdict *)
}

val default_bounds : Cycles.bounds

val analyze : ?bounds:Cycles.bounds -> Circuit.Netlist.t -> t
(** Build the graph and run all three passes. Never raises on a
    parseable netlist. *)

val greedy_cover : loop list -> string list
(** The probe cover of these loops, in selection order: repeatedly the
    probeable net in the most still-uncovered loops (smallest name on
    ties) until every loop with a probeable net is covered. Near-linear
    in the loops' total size. *)

val covers : t -> loop -> string option
(** The cover net observing this loop, if any. *)
