(* Lint findings as JSON values, built once from the findings: the
   strings are the findings' own, and printing goes through Json. *)

let count n = Json.Num (float_of_int n)
let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)

let finding_json (f : Lint.Rule.finding) =
  Json.Obj
    ([ ("rule", Json.Str f.rule_id);
       ("severity", Json.Str (Lint.Rule.severity_string f.severity));
       ("message", Json.Str f.message) ]
    @ (match f.line with Some l -> [ ("line", count l) ] | None -> [])
    @ [ ("nets", strs f.nets); ("devices", strs f.devices) ])

let json ?file findings =
  let warnings =
    List.filter
      (fun (f : Lint.Rule.finding) -> f.severity = Lint.Rule.Warning)
      findings
  in
  Json.Obj
    ((match file with Some p -> [ ("file", Json.Str p) ] | None -> [])
    @ [ ("errors", count (List.length (Lint.Runner.errors findings)));
        ("warnings", count (List.length warnings));
        ("findings", Json.Arr (List.map finding_json findings)) ])
