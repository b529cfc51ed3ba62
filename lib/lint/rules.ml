open Circuit
open Rule

let fmt_f = Numerics.Engnum.format

let canon n = if Netlist.is_ground n then Netlist.ground else n

let line_of circ name = Netlist.device_line circ name

let mk ctx ?nets ?devices ?lead ~id severity fmt =
  Printf.ksprintf
    (fun message ->
      let line = Option.bind lead (line_of ctx.circ) in
      finding ?nets ?devices ?line ~id severity message)
    fmt

(* ---- ports of the Topology.check rules, one lint rule per issue ----
   All four filter the one check the context runs per pass. *)

let topo_rule ~id ~title ~severity select =
  { id; title; severity;
    check =
      (fun ctx ->
        Lazy.force ctx.topology
        |> List.filter_map (fun issue -> select ctx issue)) }

let no_ground =
  topo_rule ~id:"no-ground" ~title:"nothing connects to ground (node 0)"
    ~severity:Error (fun ctx -> function
    | Topology.No_ground ->
      Some
        (mk ctx ~id:"no-ground" Error
           "no device connects to ground (node 0); every analysis needs a \
            reference net")
    | _ -> None)

let dangling_net =
  topo_rule ~id:"dangling-net" ~title:"net with a single connection"
    ~severity:Warning (fun ctx -> function
    | Topology.Dangling_node n ->
      Some
        (mk ctx ~nets:[ n ] ~id:"dangling-net" Warning
           "net %S has a single connection (dead end, possibly a \
            misspelled net name)" n)
    | _ -> None)

let floating_net =
  topo_rule ~id:"floating-net" ~title:"nets with no path to ground"
    ~severity:Error (fun ctx -> function
    | Topology.Disconnected ns ->
      Some
        (mk ctx ~nets:ns ~id:"floating-net" Error
           "nets with no conductive path to ground: their voltages are \
            undefined")
    | _ -> None)

let no_dc_path =
  topo_rule ~id:"no-dc-path" ~title:"nets isolated from ground at DC"
    ~severity:Warning (fun ctx -> function
    | Topology.No_dc_path ns ->
      Some
        (mk ctx ~nets:ns ~id:"no-dc-path" Warning
           "every path from these nets to ground crosses a capacitor: the \
            DC matrix is singular up to gmin and the bias point is \
            arbitrary")
    | _ -> None)

(* ---- naming ---- *)

let duplicate_name =
  { id = "duplicate-name"; title = "two devices share a name";
    severity = Error;
    check =
      (fun ctx ->
        (* The parser rejects duplicates, but circuits built or rewritten
           through the API (map_devices renames) can still collide. *)
        let seen = Hashtbl.create 64 in
        List.filter_map
          (fun d ->
            let name = Netlist.device_name d in
            let k = String.lowercase_ascii name in
            if Hashtbl.mem seen k then
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"duplicate-name"
                   Error
                   "device name %S is used more than once \
                    (case-insensitive)" name)
            else begin
              Hashtbl.add seen k ();
              None
            end)
          (Netlist.devices ctx.circ)) }

(* ---- element-local value and wiring checks ---- *)

(* Output terminals of a device: the pair whose short circuit degrades
   the stamped equations (control pins sense only). *)
let output_pair = function
  | Netlist.Resistor { name; n1; n2; _ } -> Some (name, n1, n2, `Passive)
  | Netlist.Capacitor { name; n1; n2; _ } -> Some (name, n1, n2, `Passive)
  | Netlist.Inductor { name; n1; n2; _ } -> Some (name, n1, n2, `Vdefined)
  | Netlist.Vsource { name; npos; nneg; _ } ->
    Some (name, npos, nneg, `Vdefined)
  | Netlist.Isource { name; npos; nneg; _ } ->
    Some (name, npos, nneg, `Passive)
  | Netlist.Vcvs { name; npos; nneg; _ } -> Some (name, npos, nneg, `Vdefined)
  | Netlist.Ccvs { name; npos; nneg; _ } -> Some (name, npos, nneg, `Vdefined)
  | Netlist.Vccs { name; npos; nneg; _ } -> Some (name, npos, nneg, `Passive)
  | Netlist.Cccs { name; npos; nneg; _ } -> Some (name, npos, nneg, `Passive)
  | Netlist.Diode { name; npos; nneg; _ } -> Some (name, npos, nneg, `Passive)
  | Netlist.Bjt _ | Netlist.Mosfet _ | Netlist.Mutual _ -> None

let shorted_element =
  { id = "shorted-element"; title = "both terminals of an element on one net";
    severity = Error;
    check =
      (fun ctx ->
        List.filter_map
          (fun d ->
            match output_pair d with
            | Some (name, a, b, kind) when String.equal (canon a) (canon b)
              ->
              let sev, why =
                match kind with
                | `Vdefined ->
                  ( Error,
                    "its branch equation becomes 0 = 0 and the MNA matrix \
                     is singular" )
                | `Passive -> (Warning, "it contributes nothing")
              in
              Some
                (mk ctx ~nets:[ canon a ] ~devices:[ name ] ~lead:name
                   ~id:"shorted-element" sev
                   "both terminals of %S are on net %S: %s" name (canon a)
                   why)
            | _ -> None)
          (Netlist.devices ctx.circ)) }

let zero_value =
  { id = "zero-value"; title = "zero-valued R/L/C"; severity = Error;
    check =
      (fun ctx ->
        List.filter_map
          (fun d ->
            match d with
            | Netlist.Resistor { name; r; _ } when r = 0. ->
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"zero-value" Error
                   "resistor %S has zero resistance (no conductance stamp \
                    exists; use a V source of 0 V for an ideal short)"
                   name)
            | Netlist.Capacitor { name; c; _ } when c = 0. ->
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"zero-value"
                   Warning "capacitor %S has zero capacitance (it is \
                             invisible to every analysis)" name)
            | Netlist.Inductor { name; l; _ } when l = 0. ->
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"zero-value"
                   Warning "inductor %S has zero inductance (a pure short \
                             at all frequencies)" name)
            | _ -> None)
          (Netlist.devices ctx.circ)) }

let suspicious_value =
  { id = "suspicious-value";
    title = "component magnitude suggests a unit typo"; severity = Warning;
    check =
      (fun ctx ->
        List.filter_map
          (fun d ->
            match d with
            | Netlist.Capacitor { name; c; _ } when Float.abs c >= 0.1 ->
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"suspicious-value"
                   Warning
                   "capacitor %S is %sF — farad-scale values usually mean \
                    a missing unit suffix (10 means 10 F, not 10 pF)" name
                   (fmt_f c))
            | Netlist.Inductor { name; l; _ } when Float.abs l >= 100. ->
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"suspicious-value"
                   Warning
                   "inductor %S is %sH — hecto-henry values usually mean \
                    a missing unit suffix" name (fmt_f l))
            | Netlist.Resistor { name; r; _ } when Float.abs r >= 1e12 ->
              Some
                (mk ctx ~devices:[ name ] ~lead:name ~id:"suspicious-value"
                   Info
                   "resistor %S is %sOhm — tera-ohm values are beyond \
                    realistic leakage and may starve the DC solver" name
                   (fmt_f r))
            | _ -> None)
          (Netlist.devices ctx.circ)) }

(* ---- reference checks (models, controlling devices, mutuals) ---- *)

let unknown_model =
  { id = "unknown-model"; title = "device references a missing model card";
    severity = Error;
    check =
      (fun ctx ->
        let check_model name mname what ok_kind =
          match Netlist.find_model ctx.circ mname with
          | None ->
            Some
              (mk ctx ~devices:[ name ] ~lead:name ~id:"unknown-model" Error
                 "%s %S references model %S but no .model card defines it"
                 what name mname)
          | Some m when not (ok_kind m.Netlist.kind) ->
            Some
              (mk ctx ~devices:[ name ] ~lead:name ~id:"unknown-model" Error
                 "%s %S references model %S, which has the wrong kind for \
                  a %s" what name mname what)
          | Some _ -> None
        in
        List.filter_map
          (fun d ->
            match d with
            | Netlist.Diode { name; model; _ } ->
              check_model name model "diode" (( = ) Netlist.Dmodel)
            | Netlist.Bjt { name; model; _ } ->
              check_model name model "bjt" (fun k ->
                  k = Netlist.Npn || k = Netlist.Pnp)
            | Netlist.Mosfet { name; model; _ } ->
              check_model name model "mosfet" (fun k ->
                  k = Netlist.Nmos || k = Netlist.Pmos)
            | _ -> None)
          (Netlist.devices ctx.circ)) }

let has_branch = function
  | Netlist.Vsource _ | Netlist.Inductor _ | Netlist.Vcvs _
  | Netlist.Ccvs _ -> true
  | _ -> false

let unknown_control =
  { id = "unknown-control";
    title = "F/H element names a missing controlling source";
    severity = Error;
    check =
      (fun ctx ->
        List.filter_map
          (fun d ->
            match d with
            | Netlist.Cccs { name; vname; _ }
            | Netlist.Ccvs { name; vname; _ } -> (
              match Netlist.find_device ctx.circ vname with
              | None ->
                Some
                  (mk ctx ~devices:[ name; vname ] ~lead:name
                     ~id:"unknown-control" Error
                     "%S senses the current of %S, but no such device \
                      exists" name vname)
              | Some c when not (has_branch c) ->
                Some
                  (mk ctx ~devices:[ name; vname ] ~lead:name
                     ~id:"unknown-control" Error
                     "%S senses the current of %S, which carries no \
                      branch current (only V, L, E, H do)" name vname)
              | Some _ -> None)
            | _ -> None)
          (Netlist.devices ctx.circ)) }

let bad_mutual =
  { id = "bad-mutual"; title = "K element with bad inductor refs or |k|>=1";
    severity = Error;
    check =
      (fun ctx ->
        List.concat_map
          (fun d ->
            match d with
            | Netlist.Mutual { name; l1; l2; k } ->
              let ind ln =
                match Netlist.find_device ctx.circ ln with
                | Some (Netlist.Inductor _) -> []
                | Some _ ->
                  [ mk ctx ~devices:[ name; ln ] ~lead:name ~id:"bad-mutual"
                      Error "K element %S couples %S, which is not an \
                             inductor" name ln ]
                | None ->
                  [ mk ctx ~devices:[ name; ln ] ~lead:name ~id:"bad-mutual"
                      Error "K element %S couples %S, but no such inductor \
                             exists" name ln ]
              in
              let kval =
                if Float.abs k >= 1. then
                  [ mk ctx ~devices:[ name ] ~lead:name ~id:"bad-mutual"
                      Error
                      "K element %S has |k| = %s >= 1: the inductance \
                       matrix is not positive definite" name
                      (fmt_f (Float.abs k)) ]
                else []
              in
              ind l1 @ ind l2 @ kval
            | _ -> [])
          (Netlist.devices ctx.circ)) }

(* ---- connection-pattern rules ---- *)

(* Electrical (current-carrying) terminals of a device; control pins
   excluded. *)
let electrical_nodes = function
  | Netlist.Vcvs { npos; nneg; _ } | Netlist.Vccs { npos; nneg; _ } ->
    [ npos; nneg ]
  | d -> Netlist.device_nodes d

let is_source = function
  | Netlist.Vsource _ | Netlist.Isource _ -> true
  | _ -> false

let source_only_net =
  { id = "source-only-net";
    title = "net touched only by independent sources/probes";
    severity = Warning;
    check =
      (fun ctx ->
        let touches : (string, bool list ref) Hashtbl.t =
          Hashtbl.create 64
        in
        (* A net sensed by an E/G control pin is observed, hence useful
           even when only a source drives it (standard input pattern). *)
        let sensed = Hashtbl.create 8 in
        List.iter
          (fun d ->
            (match d with
             | Netlist.Vcvs { cpos; cneg; _ } | Netlist.Vccs { cpos; cneg; _ }
               ->
               Hashtbl.replace sensed (canon cpos) ();
               Hashtbl.replace sensed (canon cneg) ()
             | _ -> ());
            List.iter
              (fun n ->
                if not (Netlist.is_ground n) then begin
                  let cell =
                    match Hashtbl.find_opt touches n with
                    | Some c -> c
                    | None ->
                      let c = ref [] in
                      Hashtbl.add touches n c;
                      c
                  in
                  cell := is_source d :: !cell
                end)
              (electrical_nodes d))
          (Netlist.devices ctx.circ);
        Hashtbl.fold
          (fun n kinds acc ->
            if
              !kinds <> []
              && List.for_all Fun.id !kinds
              && not (Hashtbl.mem sensed (canon n))
            then
              mk ctx ~nets:[ n ] ~id:"source-only-net" Warning
                "net %S is touched only by independent sources/probes: \
                 nothing loads it" n
              :: acc
            else acc)
          touches []) }

let unconnected_control =
  { id = "unconnected-control";
    title = "controlled source senses an otherwise-unused net";
    severity = Warning;
    check =
      (fun ctx ->
        (* Nets some element electrically drives or loads. *)
        let driven = Hashtbl.create 64 in
        List.iter
          (fun d ->
            List.iter
              (fun n -> Hashtbl.replace driven (canon n) ())
              (electrical_nodes d))
          (Netlist.devices ctx.circ);
        List.concat_map
          (fun d ->
            match d with
            | Netlist.Vcvs { name; cpos; cneg; _ }
            | Netlist.Vccs { name; cpos; cneg; _ } ->
              List.filter_map
                (fun n ->
                  if Hashtbl.mem driven (canon n) then None
                  else
                    Some
                      (mk ctx ~nets:[ n ] ~devices:[ name ] ~lead:name
                         ~id:"unconnected-control" Warning
                         "%S senses net %S, which no element drives or \
                          loads (misspelled net name?)" name n))
                [ cpos; cneg ]
            | _ -> [])
          (Netlist.devices ctx.circ)) }

(* Union-find over net names. *)
module Uf = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find (t : t) x =
    match Hashtbl.find_opt t x with
    | None | Some "" -> x
    | Some p ->
      let r = find t p in
      if r <> p then Hashtbl.replace t x r;
      r

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb
end

(* Voltage-defined elements fix the voltage between their terminals; a
   cycle of them over-determines KVL and the MNA matrix is singular for
   all but measure-zero element values. *)
let vsource_loop =
  { id = "vsource-loop";
    title = "loop of voltage-defined elements (V/L/E/H)"; severity = Error;
    check =
      (fun ctx ->
        let edges =
          List.filter_map
            (fun d ->
              match d with
              | Netlist.Vsource { name; npos; nneg; _ }
              | Netlist.Vcvs { name; npos; nneg; _ }
              | Netlist.Ccvs { name; npos; nneg; _ } ->
                Some (name, canon npos, canon nneg)
              | Netlist.Inductor { name; n1; n2; _ } ->
                Some (name, canon n1, canon n2)
              | _ -> None)
            (Netlist.devices ctx.circ)
        in
        let uf = Uf.create () in
        let closers =
          List.filter_map
            (fun (name, a, b) ->
              if String.equal a b then None (* shorted-element's case *)
              else if Uf.find uf a = Uf.find uf b then Some (name, a, b)
              else begin
                Uf.union uf a b;
                None
              end)
            edges
        in
        List.map
          (fun (name, a, b) ->
            (* Name the loop companions: every voltage-defined device in
               the same connected component. *)
            let root = Uf.find uf a in
            let members =
              List.filter_map
                (fun (n, x, _) ->
                  if n <> name && Uf.find uf x = root then Some n else None)
                edges
            in
            mk ctx ~nets:[ a; b ] ~devices:(name :: members) ~lead:name
              ~id:"vsource-loop" Error
              "%S closes a loop of voltage-defined elements between nets \
               %S and %S: KVL around the loop is over-determined and the \
               matrix is singular" name a b)
          closers) }

(* DC-current-path edges: everything that can carry DC current with a
   defined branch relation. Capacitors (open), current sources (fixed
   current) and controlled-current-source outputs are excluded. *)
let dc_path_pairs = function
  | Netlist.Resistor { n1; n2; _ } | Netlist.Inductor { n1; n2; _ } ->
    [ (n1, n2) ]
  | Netlist.Vsource { npos; nneg; _ } | Netlist.Vcvs { npos; nneg; _ }
  | Netlist.Ccvs { npos; nneg; _ } -> [ (npos, nneg) ]
  | Netlist.Diode { npos; nneg; _ } -> [ (npos, nneg) ]
  | Netlist.Bjt { nc; nb; ne; _ } -> [ (nc, nb); (nb, ne) ]
  | Netlist.Mosfet { nd; ns; nb; _ } -> [ (nd, ns); (ns, nb) ]
  | Netlist.Capacitor _ | Netlist.Isource _ | Netlist.Vccs _
  | Netlist.Cccs _ | Netlist.Mutual _ -> []

let isource_cutset =
  { id = "isource-cutset";
    title = "subcircuit fed only through current sources/capacitors";
    severity = Error;
    check =
      (fun ctx ->
        let uf = Uf.create () in
        let all_nets = Hashtbl.create 64 in
        List.iter
          (fun d ->
            List.iter
              (fun n -> Hashtbl.replace all_nets (canon n) ())
              (electrical_nodes d);
            List.iter
              (fun (a, b) -> Uf.union uf (canon a) (canon b))
              (dc_path_pairs d))
          (Netlist.devices ctx.circ);
        let groot = Uf.find uf Netlist.ground in
        (* Components with no DC return path, keyed by root. *)
        let comps : (string, string list ref) Hashtbl.t =
          Hashtbl.create 8
        in
        Hashtbl.iter
          (fun n () ->
            let r = Uf.find uf n in
            if r <> groot then begin
              let cell =
                match Hashtbl.find_opt comps r with
                | Some c -> c
                | None ->
                  let c = ref [] in
                  Hashtbl.add comps r c;
                  c
              in
              cell := n :: !cell
            end)
          all_nets;
        Hashtbl.fold
          (fun root nets acc ->
            let inside n = Uf.find uf (canon n) = root in
            (* The devices forcing or coupling current across the cut. *)
            let drivers, caps =
              List.fold_left
                (fun (drv, caps) d ->
                  match d with
                  | Netlist.Isource { name; npos; nneg; _ }
                  | Netlist.Vccs { name; npos; nneg; _ }
                  | Netlist.Cccs { name; npos; nneg; _ }
                    when inside npos || inside nneg -> (name :: drv, caps)
                  | Netlist.Capacitor { name; n1; n2; _ }
                    when inside n1 || inside n2 -> (drv, name :: caps)
                  | _ -> (drv, caps))
                ([], []) (Netlist.devices ctx.circ)
            in
            (* With no current forced in, this is a plain floating/cap
               island: floating-net / no-dc-path already report it. *)
            if drivers = [] then acc
            else
              let nets = List.sort_uniq compare !nets in
              mk ctx ~nets
                ~devices:(List.rev drivers @ List.rev caps)
                ~id:"isource-cutset" Error
                "nets %s have no DC current path to ground, yet current \
                 is forced into them through %s: KCL cannot balance at DC"
                (String.concat ", " nets)
                (String.concat ", " (List.rev drivers))
              :: acc)
          comps []) }

(* ---- structural singularity over the compiled MNA pattern ---- *)

let singular_structure =
  { id = "singular-structure";
    title = "MNA pattern admits no perfect row/column matching";
    severity = Error;
    check =
      (fun ctx ->
        match ctx.mna with
        | None -> []
        | Some mna ->
          let size = mna.Engine.Mna.size in
          if size = 0 then []
          else begin
            let adj = Array.make size [] in
            List.iter
              (fun (i, j) -> adj.(i) <- j :: adj.(i))
              (Engine.Mna.structural_pattern mna);
            let m = Matching.max_matching ~rows:size ~cols:size ~adj in
            if m.Matching.size >= size then []
            else begin
              let name = Engine.Mna.unknown_name mna in
              let rows =
                List.map name (Matching.unmatched_rows m)
              in
              let cols =
                List.map name (Matching.unmatched_cols m)
              in
              let split names =
                List.partition_map
                  (fun s ->
                    let n = String.length s in
                    if n > 3 && String.sub s 0 2 = "V(" then
                      Left (String.sub s 2 (n - 3))
                    else if n > 3 && String.sub s 0 2 = "I(" then
                      Right (String.sub s 2 (n - 3))
                    else Right s)
                  names
              in
              let rnets, rdevs = split rows and cnets, cdevs = split cols in
              let nets = List.sort_uniq compare (rnets @ cnets) in
              let devices = List.sort_uniq compare (rdevs @ cdevs) in
              [ mk ctx ~nets ~devices ~id:"singular-structure" Error
                  "the MNA system is structurally singular (rank \
                   deficiency %d): no pivot assignment covers equation%s \
                   %s / unknown%s %s — the matrix is singular for every \
                   element value"
                  (size - m.Matching.size)
                  (if List.length rows = 1 then "" else "s")
                  (String.concat ", " rows)
                  (if List.length cols = 1 then "" else "s")
                  (String.concat ", " cols) ]
            end
          end) }

(* ---- graph-powered rules over the static signal-flow report ----

   These force [ctx.static] (built at most once per lint pass). The
   report is deterministic and never raises on a parseable netlist; the
   runner's crash containment covers the rest. *)

let loop_no_compensation =
  { id = "loop-no-compensation";
    title = "global feedback loop with no capacitor on any member net";
    severity = Warning;
    check =
      (fun ctx ->
        let report = Lazy.force ctx.static in
        let cap_nets = Hashtbl.create 64 in
        List.iter
          (function
            | Netlist.Capacitor { n1; n2; _ } ->
              Hashtbl.replace cap_nets (canon n1) ();
              Hashtbl.replace cap_nets (canon n2) ()
            | _ -> ())
          (Netlist.devices ctx.circ);
        List.filter_map
          (fun (l : Staticanalysis.Report.loop) ->
            match l.kind with
            | Staticanalysis.Report.Local _ -> None
            | Staticanalysis.Report.Global ->
              if List.exists (Hashtbl.mem cap_nets) l.nets then None
              else
                Some
                  (mk ctx ~nets:l.nets ~devices:l.devices
                     ~id:"loop-no-compensation" Warning
                     "global feedback loop %s has no capacitor on any \
                      member net: no compensation shapes its response"
                     l.id))
          report.loops) }

let gain_outside_loop =
  { id = "gain-outside-loop";
    title = "gain device closing no feedback loop"; severity = Info;
    check =
      (fun ctx ->
        let report = Lazy.force ctx.static in
        List.map
          (fun d ->
            mk ctx ~devices:[ d ] ~lead:d ~id:"gain-outside-loop" Info
              "%S contributes gain but closes no cycle in the signal-flow \
               graph: it runs open-loop (bias distribution, or a missing \
               feedback connection)" d)
          report.open_gain) }

let loop_through_suspect =
  { id = "loop-through-suspect";
    title = "feedback loop runs through a value-flagged device";
    severity = Warning;
    check =
      (fun ctx ->
        let flagged =
          List.concat_map
            (fun (f : finding) -> f.devices)
            (zero_value.check ctx @ suspicious_value.check ctx)
          |> List.sort_uniq compare
        in
        if flagged = [] then []
        else
          let report = Lazy.force ctx.static in
          List.filter_map
            (fun (l : Staticanalysis.Report.loop) ->
              match List.filter (fun d -> List.mem d flagged) l.devices with
              | [] -> None
              | bad ->
                Some
                  (mk ctx ~nets:l.nets ~devices:bad
                     ~id:"loop-through-suspect" Warning
                     "feedback loop %s runs through %s, flagged by the \
                      value checks: its loop gain is untrustworthy" l.id
                     (String.concat ", " bad)))
            report.loops) }

let undrivable_probe =
  { id = "undrivable-probe";
    title = ".stab target unknown, voltage-pinned or source-unreachable";
    severity = Error;
    check =
      (fun ctx ->
        let report = Lazy.force ctx.static in
        List.filter_map
          (fun (n, target) ->
            if Netlist.is_ground n then
              Some
                (mk ctx ~nets:[ n ] ~id:"undrivable-probe" Warning
                   ".stab targets ground, the AC reference: its response \
                    is identically zero")
            else
              match (target : Staticanalysis.Report.target) with
              | Absent ->
                Some
                  (mk ctx ~nets:[ n ] ~id:"undrivable-probe" Error
                     ".stab names net %S, which does not exist in the \
                      design" n)
              | Pinned driver ->
                let driver = Option.value ~default:"?" driver in
                Some
                  (mk ctx ~nets:[ n ] ~devices:[ driver ]
                     ~id:"undrivable-probe" Warning
                     ".stab target %S is voltage-pinned by %S: its \
                      driving-point response reveals nothing" n driver)
              | Unreachable ->
                Some
                  (mk ctx ~nets:[ n ] ~id:"undrivable-probe" Warning
                     ".stab target %S is unreachable from every \
                      independent source: stimulus cannot excite it" n)
              | Drivable -> None)
          report.Staticanalysis.Report.stab_targets) }

let unobservable_loop =
  { id = "unobservable-loop";
    title = "feedback loop with no probeable member net"; severity = Warning;
    check =
      (fun ctx ->
        let report = Lazy.force ctx.static in
        List.map
          (fun (l : Staticanalysis.Report.loop) ->
            mk ctx ~nets:l.nets ~devices:l.devices ~id:"unobservable-loop"
              Warning
              "every member net of feedback loop %s is voltage-pinned: no \
               probe can observe it and --nodes auto will not analyze it"
              l.id)
          report.Staticanalysis.Report.uncovered) }

let all =
  [ no_ground; floating_net; dangling_net; no_dc_path; duplicate_name;
    shorted_element; zero_value; suspicious_value; unknown_model;
    unknown_control; bad_mutual; source_only_net; unconnected_control;
    vsource_loop; isource_cutset; singular_structure; loop_no_compensation;
    gain_outside_loop; loop_through_suspect; undrivable_probe;
    unobservable_loop ]

let find id = List.find_opt (fun r -> String.equal r.Rule.id id) all
