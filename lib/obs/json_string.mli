(** JSON string literals, shared by every JSON writer: manifests, lint
    reports and serve responses ([Tool.Json]), the event log
    ({!Events}) and Chrome traces ({!Trace}). *)

val add_quoted : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, quotes included. *)

val quote : string -> string
(** [s] as a JSON string literal, quotes included. *)
