(** Lint findings as JSON values, for the tool layer's three readers:
    [acstab lint --json] prints {!json}, run manifests embed it, and the
    serve daemon's [lint] command answers with it.

    Schema:
    {v
    { "file": "...",              // present when a path was given
      "errors": <int>, "warnings": <int>,
      "findings": [
        { "rule": "<rule-id>", "severity": "error|warning|info",
          "message": "...", "line": <int>,   // line omitted when unknown
          "nets": ["..."], "devices": ["..."] } ] }
    v} *)

val finding_json : Lint.Rule.finding -> Json.t

val json : ?file:string -> Lint.Rule.finding list -> Json.t
