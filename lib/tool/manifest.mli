(** Run manifests: reproducible JSON records of an analysis run.

    A manifest (schema ["acstab-manifest/1"]) captures the deck's
    SHA-256 fingerprint and size stats, the options in force, the lint
    findings, every probed node's headline numbers ([f_n], [zeta],
    phase margin, peak depth) with its numerical-health grade, the
    {!Obs.Counter} snapshot, the {!Obs.Histogram} summaries and
    wall/CPU time. [--manifest FILE] writes one on every analysis
    command; [acstab diff] compares two (see the manual, section 8). *)

val schema_version : string

type node_entry = {
  node : string;
  f_n : float option;           (** dominant-peak natural frequency, Hz *)
  zeta : float option;
  phase_margin_deg : float option;
  peak : float option;          (** stability-peak value (signed) *)
  quality : string;             (** "good" | "degraded" | "suspect" *)
}

type loop_record = {
  loop_id : string;         (** member nets joined with [">"] *)
  loop_kind : string;       (** ["global"] or ["local:DEV"] *)
  loop_gain_order : int;
  loop_nets : string list;
}

type loops_section = {
  loop_list : loop_record list;
  cover : string list;      (** greedy probe cover, selection order *)
  loops_truncated : bool;   (** a cycle-enumeration bound was hit *)
}

type t = {
  deck_file : string;
  deck_sha256 : string;
  stats : (string * int) list;       (** netlist size: nodes, devices *)
  options : (string * string) list;
  lint : Json.t;                     (** findings as emitted by the CLI *)
  nodes : node_entry list;
  loops : loops_section option;
      (** static signal-flow summary; [None] in manifests written before
          static analysis existed (the JSON field is simply absent) *)
  counters : (string * int) list;    (** non-zero counters at build time *)
  histograms : (string * Obs.Histogram.summary) list;
  wall_s : float;
  cpu_s : float;
}

val entry_of_result : Stability.Analysis.node_result -> node_entry

val build :
  deck_file:string -> deck_sha256:string -> ?circ:Circuit.Netlist.t ->
  ?options:(string * string) list -> ?lint:Json.t ->
  ?loops:loops_section ->
  results:Stability.Analysis.node_result list -> wall_s:float ->
  cpu_s:float -> unit -> t
(** Assemble a manifest from run results, snapshotting the observability
    registries. [deck_sha256] is the deck's fingerprint as the caller
    already computed it ({!Sha256.digest} of the expanded text).
    [lint] is the lint report ({!Lint_report.json}; an empty array when
    absent). *)

val json : t -> Json.t
(** The manifest as a JSON value — what the serve daemon embeds in
    analyze responses. [to_json] is its string rendering. *)

val to_json : t -> string
val write : string -> t -> unit

val of_json_string : string -> (t, string) result
(** Parse and validate; errors name the offending field. Rejects
    unknown schema versions and quality grades. *)

val load : string -> (t, string) result

(** {1 Diffing} *)

type diff_options = {
  rtol_fn : float;    (** relative tolerance on natural frequency (1e-3) *)
  rtol_zeta : float;  (** relative tolerance on damping (1e-3) *)
}

val default_diff_options : diff_options

type change =
  | Added_peak of string     (** node gained a dominant peak in B *)
  | Removed_peak of string   (** node lost its dominant peak in B *)
  | Shifted of { node : string; field : string; a : float; b : float }
  | Downgraded of { node : string; from_ : string; to_ : string }
  | Loop_removed of string   (** loop id in A's loops section, absent in B *)
  | Loop_added of string     (** loop id in B's loops section, absent in A *)

val diff : ?options:diff_options -> t -> t -> change list
(** Changes of [b] relative to the reference [a]. Peak numbers within
    tolerance and quality {e upgrades} are not changes; an empty list
    means the runs agree ([acstab diff] exit 0, otherwise 5). Structural
    loop records are compared only when {e both} manifests carry a loops
    section — references written before static analysis existed gate
    nothing. *)

val pp_change : Format.formatter -> change -> unit

val change_json : change -> Json.t

val diff_json : a:t -> b:t -> change list -> Json.t
(** Machine-readable diff verdict (schema ["acstab-diff/1"]): the
    compared decks, an [agree] flag and the change list — the payload
    of [acstab diff --json] and of the serve daemon's diff responses. *)
