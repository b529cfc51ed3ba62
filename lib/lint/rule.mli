(** Lint rule model: severities, findings and the rule interface.

    A rule is a named static check over a parsed netlist (and, when
    elaboration succeeds, the compiled MNA system). It reports findings
    that speak the designer's vocabulary — net and device names plus the
    netlist source line — instead of matrix indices. *)

type severity = Error | Warning | Info

val severity_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val severity_rank : severity -> int
(** Error < Warning < Info (for sorting, most severe first). *)

type finding = {
  rule_id : string;          (** stable rule identifier, e.g. "vsource-loop" *)
  severity : severity;
  message : string;          (** one-line, human-readable explanation *)
  nets : string list;        (** nets involved, most relevant first *)
  devices : string list;     (** devices involved, most relevant first *)
  line : int option;         (** netlist source line of the lead device *)
}

val finding :
  ?nets:string list -> ?devices:string list -> ?line:int ->
  id:string -> severity -> string -> finding

(** Everything a rule may inspect. [mna] is [None] when elaboration
    failed (e.g. a missing model card); rules needing the compiled system
    then simply skip. [topology] is {!Circuit.Topology.check} of the
    circuit and [static] the signal-flow report — both lazy, so a pass
    computes each at most once, and a pass with no rule that reads one
    never computes it. *)
type ctx = {
  circ : Circuit.Netlist.t;
  mna : Engine.Mna.t option;
  topology : Circuit.Topology.issue list Lazy.t;
  static : Staticanalysis.Report.t Lazy.t;
}

val make_ctx :
  ?static:Staticanalysis.Report.t Lazy.t -> Circuit.Netlist.t -> ctx
(** Compile the circuit when possible; never raises. [static] supplies
    the signal-flow report (it must be the circuit's report at
    {!Staticanalysis.Report.default_bounds}), so a caller that keeps
    one already does not pay for a second graph build; by default the
    context builds its own. *)

type t = {
  id : string;               (** stable identifier, also the CLI name *)
  title : string;            (** one-line description for the catalogue *)
  severity : severity;       (** default severity of this rule's findings *)
  check : ctx -> finding list;
}

val pp_finding : ?file:string -> Format.formatter -> finding -> unit
(** ["file:line: severity[rule-id]: message (nets: ...; devices: ...)"].
    Omits the location prefix when no line was recorded. *)
