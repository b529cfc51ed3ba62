(** Self-contained JSON values: printer {e and} parser.

    Run manifests must round-trip — [acstab diff] reads back what
    [--manifest] wrote — so unlike the emit-only JSON in the lint
    library this one parses too. Numbers are doubles; non-finite floats
    print as [null]. One constructor, [Rendered], carries text the
    printer produced earlier, so the serve daemon can keep a cached
    manifest's rendering and splice it into each answer instead of
    encoding the manifest again. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Rendered of string
      (** Text that {!to_string} already produced for some value,
          printed verbatim: a value rendered once can be spliced into
          many documents, and [Obj [("m", Rendered (to_string v))]]
          prints the same bytes as [Obj [("m", v)]]. The printer does
          not check the text, so anything else spliced in makes the
          output invalid. {!of_string} never produces it, and the
          accessors below treat it as opaque ([member] finds nothing
          inside it). *)

val to_string : t -> string
(** Compact (single-line) serialisation. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_string] appended to a buffer. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte-offset
    message. One pass over the text that allocates little besides the
    values it returns: a string without escapes is one copy of its
    bytes.
    Containers nested more than 512 deep are refused with
    ["nesting deeper than 512 at byte N"], so the time and stack a
    hostile document costs stay linear in its length and bounded. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing key or non-object. *)

val salvage_member : string -> string -> t option
(** [salvage_member key text] best-effort extraction of one member's
    value from text that may not parse as a whole (a half-written
    NDJSON request, say): reads the text's strings in order and answers
    the value after the first one that spells [key] and is followed by
    [:] and a parseable value. Nesting is not tracked — the first
    syntactic match wins — so use only for diagnostics such as echoing
    a request id, never for real decoding. Each string's end is found
    once and no key is tried inside a value that already failed to
    parse, so the time is linear in the length of [text] whatever it
    holds. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

val to_int : t -> int option
(** Integral numbers only ([Num 3.] yes, [Num 3.5] no). *)

(** [member]+accessor in one step — the request decoders of the serve
    protocol read almost every field this way. *)

val mem_str : string -> t -> string option
val mem_float : string -> t -> float option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
