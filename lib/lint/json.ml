(* Minimal JSON emission — just enough for lint reports; strings go
   through the shared Obs.Json_string escaper. *)

let str = Obs.Json_string.quote

let arr items = "[" ^ String.concat "," items ^ "]"

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let of_finding (f : Rule.finding) =
  obj
    ([ ("rule", str f.rule_id);
       ("severity", str (Rule.severity_string f.severity));
       ("message", str f.message) ]
    @ (match f.line with
      | Some l -> [ ("line", string_of_int l) ]
      | None -> [])
    @ [ ("nets", arr (List.map str f.nets));
        ("devices", arr (List.map str f.devices)) ])

let report ?file findings =
  let errors = List.length (Runner.errors findings) in
  obj
    ((match file with Some p -> [ ("file", str p) ] | None -> [])
    @ [ ("errors", string_of_int errors);
        ("warnings",
         string_of_int
           (List.length
              (List.filter
                 (fun (f : Rule.finding) -> f.severity = Rule.Warning)
                 findings)));
        ("findings", arr (List.map of_finding findings)) ])
