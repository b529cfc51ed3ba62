type severity = Error | Warning | Info

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type finding = {
  rule_id : string;
  severity : severity;
  message : string;
  nets : string list;
  devices : string list;
  line : int option;
}

let finding ?(nets = []) ?(devices = []) ?line ~id severity message =
  { rule_id = id; severity; message; nets; devices; line }

type ctx = {
  circ : Circuit.Netlist.t;
  mna : Engine.Mna.t option;
  topology : Circuit.Topology.issue list Lazy.t;
  static : Staticanalysis.Report.t Lazy.t;
}

let make_ctx ?static circ =
  let mna =
    (* Elaboration can fail for reasons lint itself reports (missing
       models, zero resistors, unknown controlling sources); rules that
       need the compiled system skip gracefully. *)
    match Engine.Mna.compile circ with
    | mna -> Some mna
    | exception _ -> None
  in
  (* Lazy: forced the first time a graph-powered rule runs, shared by
     all of them within one lint pass. The structural check likewise,
     by the four rules that filter it; if it raises, each of them raises
     the same exception again and reports its own crash. *)
  let static =
    match static with
    | Some s -> s
    | None -> lazy (Staticanalysis.Report.analyze circ)
  in
  { circ; mna; topology = lazy (Circuit.Topology.check circ); static }

type t = {
  id : string;
  title : string;
  severity : severity;
  check : ctx -> finding list;
}

let pp_finding ?file ppf f =
  (match (file, f.line) with
   | Some p, Some l -> Format.fprintf ppf "%s:%d: " p l
   | Some p, None -> Format.fprintf ppf "%s: " p
   | None, Some l -> Format.fprintf ppf "line %d: " l
   | None, None -> ());
  Format.fprintf ppf "%s[%s]: %s" (severity_string f.severity) f.rule_id
    f.message;
  let aux label = function
    | [] -> ()
    | xs -> Format.fprintf ppf " (%s: %s)" label (String.concat ", " xs)
  in
  aux "nets" f.nets;
  aux "devices" f.devices
