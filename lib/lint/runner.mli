(** Running the rule catalogue over a circuit. *)

type config = { disabled : string list (** rule IDs switched off *) }

val default : config

val run :
  ?config:config -> ?static:Staticanalysis.Report.t Lazy.t ->
  Circuit.Netlist.t -> Rule.finding list
(** Run every enabled rule; findings sorted by severity, then source
    line, then rule ID. A rule that raises is reported as a warning
    finding rather than aborting the pass. [static] is passed to
    {!Rule.make_ctx}. *)

val errors : Rule.finding list -> Rule.finding list
val has_errors : Rule.finding list -> bool

val explain_singular : ?index:int -> Circuit.Netlist.t -> Rule.finding list
(** Error-severity findings explaining why a factorization raised
    [Singular]. When [index] (the failing MNA pivot) is given, findings
    naming that unknown's net or device are preferred; falls back to all
    error findings so the user always sees a structural cause when one
    exists. *)
