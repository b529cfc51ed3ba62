open Circuit

type elem =
  | E_res of { i : int; j : int; g : float }
  | E_cap of { i : int; j : int; c : float; ic : float option }
  | E_ind of { i : int; j : int; l : float; br : int; ic : float option }
  | E_vsrc of { i : int; j : int; br : int; spec : Netlist.source_spec }
  | E_isrc of { i : int; j : int; spec : Netlist.source_spec }
  | E_vcvs of { i : int; j : int; ci : int; cj : int; br : int; gain : float }
  | E_vccs of { i : int; j : int; ci : int; cj : int; gm : float }
  | E_cccs of { i : int; j : int; cbr : int; gain : float }
  | E_ccvs of { i : int; j : int; cbr : int; br : int; rm : float }
  | E_diode of { i : int; j : int; p : Devices.Diode_model.params;
                 area : float }
  | E_bjt of { c : int; b : int; e : int; p : Devices.Bjt_model.params;
               area : float; sign : float }
  | E_mos of { d : int; g : int; s : int; b : int;
               p : Devices.Mos_model.params; w : float; l : float;
               sign : float }
  | E_mut of { br1 : int; br2 : int; m : float }

type t = {
  circ : Netlist.t;
  topo : Topology.t;
  n_nodes : int;
  n_branches : int;
  size : int;
  elems : (string * elem) array;
  temp_c : float;
}

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let compile circ =
  if not (Netlist.uses_ground circ) then
    fail "circuit %S has no ground (node 0) connection" (Netlist.title circ);
  let topo = Topology.build circ in
  let n_nodes = Topology.node_count topo in
  let node n =
    if Netlist.is_ground n then -1
    else
      match Topology.index_opt topo n with
      | Some i -> i
      | None -> fail "unknown net %S" n
  in
  (* First pass: branch indices for voltage-defined elements. *)
  let branch_tbl = Hashtbl.create 16 in
  let next_branch = ref 0 in
  let devices = Netlist.devices circ in
  List.iter
    (fun d ->
      match d with
      | Netlist.Vsource _ | Netlist.Inductor _ | Netlist.Vcvs _
      | Netlist.Ccvs _ ->
        Hashtbl.replace branch_tbl
          (String.lowercase_ascii (Netlist.device_name d))
          (n_nodes + !next_branch);
        incr next_branch
      | _ -> ())
    devices;
  let n_branches = !next_branch in
  let branch name =
    match Hashtbl.find_opt branch_tbl (String.lowercase_ascii name) with
    | Some b -> b
    | None -> fail "device %S is not a voltage-defined element" name
  in
  let model kind_check what name =
    match Netlist.find_model circ name with
    | Some m when kind_check m.Netlist.kind -> m
    | Some _ -> fail "model %S has the wrong kind for a %s" name what
    | None -> fail "unknown %s model %S" what name
  in
  let compile_device d =
    let name = Netlist.device_name d in
    let elem =
      match d with
      | Netlist.Resistor { n1; n2; r; tc1; tc2; _ } ->
        (* Temperature coefficients apply relative to the 27 C nominal. *)
        let dt = Netlist.temp_celsius circ -. 27. in
        let r = r *. (1. +. (tc1 *. dt) +. (tc2 *. dt *. dt)) in
        if r = 0. then fail "resistor %S has zero resistance" name;
        E_res { i = node n1; j = node n2; g = 1. /. r }
      | Netlist.Capacitor { n1; n2; c; ic; _ } ->
        E_cap { i = node n1; j = node n2; c; ic }
      | Netlist.Inductor { n1; n2; l; ic; _ } ->
        E_ind { i = node n1; j = node n2; l; br = branch name; ic }
      | Netlist.Vsource { npos; nneg; spec; _ } ->
        E_vsrc { i = node npos; j = node nneg; br = branch name; spec }
      | Netlist.Isource { npos; nneg; spec; _ } ->
        E_isrc { i = node npos; j = node nneg; spec }
      | Netlist.Vcvs { npos; nneg; cpos; cneg; gain; _ } ->
        E_vcvs { i = node npos; j = node nneg; ci = node cpos;
                 cj = node cneg; br = branch name; gain }
      | Netlist.Vccs { npos; nneg; cpos; cneg; gm; _ } ->
        E_vccs { i = node npos; j = node nneg; ci = node cpos;
                 cj = node cneg; gm }
      | Netlist.Cccs { npos; nneg; vname; gain; _ } ->
        E_cccs { i = node npos; j = node nneg; cbr = branch vname; gain }
      | Netlist.Ccvs { npos; nneg; vname; rm; _ } ->
        E_ccvs { i = node npos; j = node nneg; cbr = branch vname;
                 br = branch name; rm }
      | Netlist.Diode { npos; nneg; model = mn; area; _ } ->
        let m = model (( = ) Netlist.Dmodel) "diode" mn in
        E_diode { i = node npos; j = node nneg;
                  p = Devices.Diode_model.params_of_model m; area }
      | Netlist.Bjt { nc; nb; ne; model = mn; area; _ } ->
        let m =
          model (fun k -> k = Netlist.Npn || k = Netlist.Pnp) "bjt" mn
        in
        E_bjt { c = node nc; b = node nb; e = node ne;
                p = Devices.Bjt_model.params_of_model m; area;
                sign = (if m.Netlist.kind = Netlist.Npn then 1. else -1.) }
      | Netlist.Mutual { l1; l2; k; _ } ->
        let ind_value lname =
          match Netlist.find_device circ lname with
          | Some (Netlist.Inductor { l; _ }) -> l
          | Some _ -> fail "K element %S: %S is not an inductor" name lname
          | None -> fail "K element %S: no inductor %S" name lname
        in
        let lv1 = ind_value l1 and lv2 = ind_value l2 in
        E_mut { br1 = branch l1; br2 = branch l2;
                m = k *. sqrt (lv1 *. lv2) }
      | Netlist.Mosfet { nd; ng; ns; nb; model = mn; w; l; _ } ->
        let m =
          model (fun k -> k = Netlist.Nmos || k = Netlist.Pmos) "mosfet" mn
        in
        E_mos { d = node nd; g = node ng; s = node ns; b = node nb;
                p = Devices.Mos_model.params_of_model m; w; l;
                sign = (if m.Netlist.kind = Netlist.Nmos then 1. else -1.) }
    in
    (name, elem)
  in
  (* Cite the netlist line of the offending card when the parser recorded
     one: "line 7: resistor "R1" has zero resistance". *)
  let compile_device d =
    try compile_device d
    with Compile_error m ->
      (match Netlist.device_line circ (Netlist.device_name d) with
       | Some line -> fail "line %d: %s" line m
       | None -> raise (Compile_error m))
  in
  { circ; topo; n_nodes; n_branches; size = n_nodes + n_branches;
    elems = Array.of_list (List.map compile_device devices);
    temp_c = Netlist.temp_celsius circ }

let node_index t n =
  if Netlist.is_ground n then -1
  else
    match Topology.index_opt t.topo n with
    | Some i -> i
    | None -> fail "unknown net %S" n

let branch_index t name =
  let target = String.lowercase_ascii name in
  let found = ref None in
  Array.iter
    (fun (n, e) ->
      if String.lowercase_ascii n = target then
        match e with
        | E_vsrc { br; _ } | E_ind { br; _ } | E_vcvs { br; _ }
        | E_ccvs { br; _ } -> found := Some br
        | _ -> ())
    t.elems;
  match !found with
  | Some b -> b
  | None -> fail "device %S has no branch current" name

let nonlinear t =
  Array.exists
    (fun (_, e) ->
      match e with E_diode _ | E_bjt _ | E_mos _ -> true | _ -> false)
    t.elems

(* Translate an unknown-vector index into the user's vocabulary: node
   voltages print as V(net), branch currents as I(device). *)
let unknown_name t k =
  if k >= 0 && k < t.n_nodes then
    Printf.sprintf "V(%s)" (Topology.name t.topo k)
  else begin
    let found = ref None in
    Array.iter
      (fun (name, e) ->
        match e with
        | E_vsrc { br; _ } | E_ind { br; _ } | E_vcvs { br; _ }
        | E_ccvs { br; _ } ->
          if br = k then found := Some name
        | _ -> ())
      t.elems;
    match !found with
    | Some name -> Printf.sprintf "I(%s)" name
    | None -> Printf.sprintf "unknown %d" k
  end

let structural_pattern ?(gmin = true) t =
  let tbl = Hashtbl.create (8 * t.size) in
  let add i j =
    if i >= 0 && j >= 0 then Hashtbl.replace tbl ((i * t.size) + j) ()
  in
  let quad i j =
    add i i; add j j; add i j; add j i
  in
  let incidence i j br =
    add i br; add j br; add br i; add br j
  in
  (* Footprint of every stamp the DC, transient and AC analyses may
     write. Semiconductor devices use their full terminal block (the
     small-signal primitives Stamps.pencil stamps land inside it), which
     can only overestimate the pattern — safe for structural-rank
     prediction: an extra entry can hide a deficiency but never invent
     one. *)
  Array.iter
    (fun (_, e) ->
      match e with
      | E_res { i; j; _ } | E_cap { i; j; _ } -> quad i j
      | E_ind { i; j; br; _ } ->
        incidence i j br;
        add br br
      | E_vsrc { i; j; br; _ } -> incidence i j br
      | E_isrc _ -> ()
      | E_vcvs { i; j; ci; cj; br; _ } ->
        incidence i j br;
        add br ci;
        add br cj
      | E_vccs { i; j; ci; cj; _ } ->
        add i ci; add i cj; add j ci; add j cj
      | E_cccs { i; j; cbr; _ } ->
        add i cbr;
        add j cbr
      | E_ccvs { i; j; cbr; br; _ } ->
        incidence i j br;
        add br cbr
      | E_mut { br1; br2; _ } ->
        add br1 br2;
        add br2 br1
      | E_diode { i; j; _ } -> quad i j
      | E_bjt { c; b; e; _ } ->
        List.iter (fun r -> List.iter (add r) [ c; b; e ]) [ c; b; e ]
      | E_mos { d; g; s; b; _ } ->
        List.iter (fun r -> List.iter (add r) [ d; g; s; b ]) [ d; g; s; b ])
    t.elems;
  if gmin then
    for i = 0 to t.n_nodes - 1 do
      add i i
    done;
  Hashtbl.fold (fun key () acc -> (key / t.size, key mod t.size) :: acc)
    tbl []
  |> List.sort compare

(* ---- stamp helpers ---- *)

let stamp_mat m i j v =
  if i >= 0 && j >= 0 then Numerics.Rmat.add_to m i j v

let stamp_g m i j g =
  stamp_mat m i i g;
  stamp_mat m j j g;
  stamp_mat m i j (-.g);
  stamp_mat m j i (-.g)

let stamp_rhs rhs i v = if i >= 0 then rhs.(i) <- rhs.(i) +. v

let stamp_rhs_c rhs i v = if i >= 0 then rhs.(i) <- Complex.add rhs.(i) v
