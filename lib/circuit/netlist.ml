type node = string

let ground = "0"

let is_ground n =
  match String.lowercase_ascii n with "0" | "gnd" -> true | _ -> false

type wave =
  | Dc of float
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Sine of { offset : float; ampl : float; freq : float; delay : float;
              damping : float }
  | Pwl of (float * float) list

type source_spec = {
  dc : float;
  ac_mag : float;
  ac_phase_deg : float;
  wave : wave option;
}

let dc_source dc = { dc; ac_mag = 0.; ac_phase_deg = 0.; wave = None }

let ac_source ?(dc = 0.) ?(phase_deg = 0.) ac_mag =
  { dc; ac_mag; ac_phase_deg = phase_deg; wave = None }

let wave_source ?(dc = 0.) ?(ac_mag = 0.) wave =
  { dc; ac_mag; ac_phase_deg = 0.; wave = Some wave }

type model_kind = Dmodel | Npn | Pnp | Nmos | Pmos

type model = {
  model_name : string;
  kind : model_kind;
  params : (string * float) list;
}

let model_param m name ~default =
  match List.assoc_opt (String.lowercase_ascii name) m.params with
  | Some v -> v
  | None -> default

type device =
  | Resistor of { name : string; n1 : node; n2 : node; r : float;
                  tc1 : float; tc2 : float }
  | Capacitor of { name : string; n1 : node; n2 : node; c : float;
                   ic : float option }
  | Inductor of { name : string; n1 : node; n2 : node; l : float;
                  ic : float option }
  | Vsource of { name : string; npos : node; nneg : node; spec : source_spec }
  | Isource of { name : string; npos : node; nneg : node; spec : source_spec }
  | Vcvs of { name : string; npos : node; nneg : node; cpos : node;
              cneg : node; gain : float }
  | Vccs of { name : string; npos : node; nneg : node; cpos : node;
              cneg : node; gm : float }
  | Cccs of { name : string; npos : node; nneg : node; vname : string;
              gain : float }
  | Ccvs of { name : string; npos : node; nneg : node; vname : string;
              rm : float }
  | Diode of { name : string; npos : node; nneg : node; model : string;
               area : float }
  | Bjt of { name : string; nc : node; nb : node; ne : node; model : string;
             area : float }
  | Mosfet of { name : string; nd : node; ng : node; ns : node; nb : node;
                model : string; w : float; l : float }
  | Mutual of { name : string; l1 : string; l2 : string; k : float }

let device_name = function
  | Resistor { name; _ } | Capacitor { name; _ } | Inductor { name; _ }
  | Vsource { name; _ } | Isource { name; _ } | Vcvs { name; _ }
  | Vccs { name; _ } | Cccs { name; _ } | Ccvs { name; _ }
  | Diode { name; _ } | Bjt { name; _ } | Mosfet { name; _ }
  | Mutual { name; _ } -> name

let device_nodes = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ }
    -> [ n1; n2 ]
  | Vsource { npos; nneg; _ } | Isource { npos; nneg; _ }
  | Cccs { npos; nneg; _ } | Ccvs { npos; nneg; _ } -> [ npos; nneg ]
  | Vcvs { npos; nneg; cpos; cneg; _ } | Vccs { npos; nneg; cpos; cneg; _ }
    -> [ npos; nneg; cpos; cneg ]
  | Diode { npos; nneg; _ } -> [ npos; nneg ]
  | Bjt { nc; nb; ne; _ } -> [ nc; nb; ne ]
  | Mosfet { nd; ng; ns; nb; _ } -> [ nd; ng; ns; nb ]
  | Mutual _ -> []

let rename_node d ~from_ ~to_ =
  let r n = if String.equal n from_ then to_ else n in
  match d with
  | Resistor x -> Resistor { x with n1 = r x.n1; n2 = r x.n2 }
  | Capacitor x -> Capacitor { x with n1 = r x.n1; n2 = r x.n2 }
  | Inductor x -> Inductor { x with n1 = r x.n1; n2 = r x.n2 }
  | Vsource x -> Vsource { x with npos = r x.npos; nneg = r x.nneg }
  | Isource x -> Isource { x with npos = r x.npos; nneg = r x.nneg }
  | Vcvs x ->
    Vcvs { x with npos = r x.npos; nneg = r x.nneg; cpos = r x.cpos;
                  cneg = r x.cneg }
  | Vccs x ->
    Vccs { x with npos = r x.npos; nneg = r x.nneg; cpos = r x.cpos;
                  cneg = r x.cneg }
  | Cccs x -> Cccs { x with npos = r x.npos; nneg = r x.nneg }
  | Ccvs x -> Ccvs { x with npos = r x.npos; nneg = r x.nneg }
  | Diode x -> Diode { x with npos = r x.npos; nneg = r x.nneg }
  | Bjt x -> Bjt { x with nc = r x.nc; nb = r x.nb; ne = r x.ne }
  | Mosfet x ->
    Mosfet { x with nd = r x.nd; ng = r x.ng; ns = r x.ns; nb = r x.nb }
  | Mutual x -> Mutual x

type directive =
  | Op
  | Ac of Numerics.Sweep.t
  | Tran of { tstop : float; tstep : float }
  | Stab_node of node
  | Stab_all
  | Nodeset of (node * float) list

module Smap = Map.Make (String)

(* A device in the name index, with the source line the parser recorded
   for it (0: none, as for a device built in code). *)
type named = { dev : device; line : int }

type t = {
  title : string;
  temp : float;  (* Celsius *)
  rev_devices : device list;
  by_name : named Smap.t;  (* keyed by lower-cased device name *)
  models_map : model Smap.t;
  params_map : float Smap.t;
  rev_params : (string * float) list;
  rev_directives : directive list;
  options_map : float Smap.t;
}

let empty ?(title = "untitled") () =
  { title; temp = 27.; rev_devices = []; by_name = Smap.empty;
    models_map = Smap.empty; params_map = Smap.empty; rev_params = [];
    rev_directives = []; options_map = Smap.empty }

let title c = c.title
let temp_celsius c = c.temp
let with_temp temp c = { c with temp }

(* A name with no upper-case letter is its own key. *)
let key s =
  if String.exists (fun ch -> ch >= 'A' && ch <= 'Z') s then
    String.lowercase_ascii s
  else s

let add c d =
  let k = key (device_name d) in
  if Smap.mem k c.by_name then
    invalid_arg (Printf.sprintf "Netlist.add: duplicate device %S" (device_name d));
  { c with rev_devices = d :: c.rev_devices;
           by_name = Smap.add k { dev = d; line = 0 } c.by_name }

let add_model c m =
  { c with models_map = Smap.add (key m.model_name) m c.models_map }

let add_param c name v =
  { c with params_map = Smap.add (key name) v c.params_map;
           rev_params = (name, v) :: c.rev_params }

let add_directive c d = { c with rev_directives = d :: c.rev_directives }

let add_option c k v = { c with options_map = Smap.add (key k) v c.options_map }

let option_value c k ~default =
  match Smap.find_opt (key k) c.options_map with
  | Some v -> v
  | None -> default

let set_device_line c name line =
  { c with
    by_name =
      Smap.update (key name)
        (Option.map (fun n -> { n with line }))
        c.by_name }

let device_line c name =
  match Smap.find (key name) c.by_name with
  | { line; _ } when line > 0 -> Some line
  | _ | (exception Not_found) -> None

let options c = Smap.bindings c.options_map
let devices c = List.rev c.rev_devices
let models c = List.map snd (Smap.bindings c.models_map)
let params c = List.rev c.rev_params
let directives c = List.rev c.rev_directives
let find_device c name =
  match Smap.find (key name) c.by_name with
  | n -> Some n.dev
  | exception Not_found -> None

let find_model c name = Smap.find_opt (key name) c.models_map

let line_of c k =
  match Smap.find k c.by_name with n -> n.line | exception Not_found -> 0

let remove_device c name =
  let k = key name in
  { c with
    rev_devices =
      List.filter (fun d -> key (device_name d) <> k) c.rev_devices;
    by_name = Smap.remove k c.by_name }

let replace_device c d =
  let line = line_of c (key (device_name d)) in
  let c = remove_device c (device_name d) in
  let c = add c d in
  if line > 0 then set_device_line c (device_name d) line else c

(* A mapped device keeps the line recorded under its name. *)
let map_devices f c =
  let rev_devices = List.rev_map f (List.rev c.rev_devices) in
  let by_name =
    List.fold_left
      (fun m d ->
        let k = key (device_name d) in
        Smap.add k { dev = d; line = line_of c k } m)
      Smap.empty rev_devices
  in
  { c with rev_devices; by_name }

let node_names c =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun d ->
      List.iter
        (fun n -> if not (is_ground n) then Hashtbl.replace tbl n ())
        (device_nodes d))
    c.rev_devices;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) tbl [])

let uses_ground c =
  List.exists
    (fun d -> List.exists is_ground (device_nodes d))
    c.rev_devices

let resistor c name n1 n2 r =
  add c (Resistor { name; n1; n2; r; tc1 = 0.; tc2 = 0. })
let capacitor ?ic c name n1 n2 cap = add c (Capacitor { name; n1; n2; c = cap; ic })
let inductor ?ic c name n1 n2 l = add c (Inductor { name; n1; n2; l; ic })
let vsource c name npos nneg spec = add c (Vsource { name; npos; nneg; spec })
let isource c name npos nneg spec = add c (Isource { name; npos; nneg; spec })

let vcvs c name npos nneg cpos cneg gain =
  add c (Vcvs { name; npos; nneg; cpos; cneg; gain })

let vccs c name npos nneg cpos cneg gm =
  add c (Vccs { name; npos; nneg; cpos; cneg; gm })

let diode ?(area = 1.) c name npos nneg model =
  add c (Diode { name; npos; nneg; model; area })

let bjt ?(area = 1.) c name ~c:nc ~b:nb ~e:ne model =
  add c (Bjt { name; nc; nb; ne; model; area })

let mosfet ?(w = 10e-6) ?(l = 1e-6) c name ~d:nd ~g:ng ~s:ns ~b:nb model =
  add c (Mosfet { name; nd; ng; ns; nb; model; w; l })

let mutual c name ~l1 ~l2 ~k = add c (Mutual { name; l1; l2; k })

let fmt_f = Numerics.Engnum.format

let pp_spec ppf spec =
  Format.fprintf ppf "DC %s" (fmt_f spec.dc);
  if spec.ac_mag <> 0. then begin
    Format.fprintf ppf " AC %s" (fmt_f spec.ac_mag);
    if spec.ac_phase_deg <> 0. then
      Format.fprintf ppf " %s" (fmt_f spec.ac_phase_deg)
  end;
  match spec.wave with
  | None | Some (Dc _) -> ()
  | Some (Pulse { v1; v2; delay; rise; fall; width; period }) ->
    Format.fprintf ppf " PULSE(%s %s %s %s %s %s %s)" (fmt_f v1) (fmt_f v2)
      (fmt_f delay) (fmt_f rise) (fmt_f fall) (fmt_f width) (fmt_f period)
  | Some (Sine { offset; ampl; freq; delay; damping }) ->
    Format.fprintf ppf " SIN(%s %s %s %s %s)" (fmt_f offset) (fmt_f ampl)
      (fmt_f freq) (fmt_f delay) (fmt_f damping)
  | Some (Pwl pts) ->
    Format.fprintf ppf " PWL(";
    List.iteri
      (fun i (t, v) ->
        if i > 0 then Format.fprintf ppf " ";
        Format.fprintf ppf "%s %s" (fmt_f t) (fmt_f v))
      pts;
    Format.fprintf ppf ")"

let pp_device ppf = function
  | Resistor { name; n1; n2; r; tc1; tc2 } ->
    Format.fprintf ppf "%s %s %s %s" name n1 n2 (fmt_f r);
    if tc1 <> 0. then Format.fprintf ppf " TC1=%s" (fmt_f tc1);
    if tc2 <> 0. then Format.fprintf ppf " TC2=%s" (fmt_f tc2)
  | Capacitor { name; n1; n2; c; ic } ->
    Format.fprintf ppf "%s %s %s %s" name n1 n2 (fmt_f c);
    Option.iter (fun v -> Format.fprintf ppf " IC=%s" (fmt_f v)) ic
  | Inductor { name; n1; n2; l; ic } ->
    Format.fprintf ppf "%s %s %s %s" name n1 n2 (fmt_f l);
    Option.iter (fun v -> Format.fprintf ppf " IC=%s" (fmt_f v)) ic
  | Vsource { name; npos; nneg; spec } ->
    Format.fprintf ppf "%s %s %s %a" name npos nneg pp_spec spec
  | Isource { name; npos; nneg; spec } ->
    Format.fprintf ppf "%s %s %s %a" name npos nneg pp_spec spec
  | Vcvs { name; npos; nneg; cpos; cneg; gain } ->
    Format.fprintf ppf "%s %s %s %s %s %s" name npos nneg cpos cneg
      (fmt_f gain)
  | Vccs { name; npos; nneg; cpos; cneg; gm } ->
    Format.fprintf ppf "%s %s %s %s %s %s" name npos nneg cpos cneg (fmt_f gm)
  | Cccs { name; npos; nneg; vname; gain } ->
    Format.fprintf ppf "%s %s %s %s %s" name npos nneg vname (fmt_f gain)
  | Ccvs { name; npos; nneg; vname; rm } ->
    Format.fprintf ppf "%s %s %s %s %s" name npos nneg vname (fmt_f rm)
  | Diode { name; npos; nneg; model; area } ->
    Format.fprintf ppf "%s %s %s %s" name npos nneg model;
    if area <> 1. then Format.fprintf ppf " %s" (fmt_f area)
  | Bjt { name; nc; nb; ne; model; area } ->
    Format.fprintf ppf "%s %s %s %s %s" name nc nb ne model;
    if area <> 1. then Format.fprintf ppf " %s" (fmt_f area)
  | Mosfet { name; nd; ng; ns; nb; model; w; l } ->
    Format.fprintf ppf "%s %s %s %s %s %s W=%s L=%s" name nd ng ns nb model
      (fmt_f w) (fmt_f l)
  | Mutual { name; l1; l2; k } ->
    Format.fprintf ppf "%s %s %s %s" name l1 l2 (fmt_f k)

let kind_string = function
  | Dmodel -> "d"
  | Npn -> "npn"
  | Pnp -> "pnp"
  | Nmos -> "nmos"
  | Pmos -> "pmos"

let pp ppf c =
  Format.fprintf ppf "* %s@." c.title;
  if c.temp <> 27. then Format.fprintf ppf ".temp %s@." (fmt_f c.temp);
  (match options c with
   | [] -> ()
   | opts ->
     Format.fprintf ppf ".options";
     List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k (fmt_f v)) opts;
     Format.fprintf ppf "@.");
  List.iter
    (function
      | Nodeset entries ->
        Format.fprintf ppf ".nodeset";
        List.iter
          (fun (n, v) -> Format.fprintf ppf " %s=%s" n (fmt_f v))
          entries;
        Format.fprintf ppf "@."
      | Op | Ac _ | Tran _ | Stab_node _ | Stab_all -> ())
    (directives c);
  List.iter
    (fun (n, v) -> Format.fprintf ppf ".param %s=%s@." n (fmt_f v))
    (params c);
  List.iter (fun d -> Format.fprintf ppf "%a@." pp_device d) (devices c);
  List.iter
    (fun m ->
      Format.fprintf ppf ".model %s %s (" m.model_name (kind_string m.kind);
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.fprintf ppf " ";
          Format.fprintf ppf "%s=%s" k (fmt_f v))
        m.params;
      Format.fprintf ppf ")@.")
    (models c);
  Format.fprintf ppf ".end@."

let to_spice c = Format.asprintf "%a" pp c
