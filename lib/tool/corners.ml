type t = {
  corner_name : string;
  temp_c : float option;
  model_overrides : (string * (string * float) list) list;
}

let make ?temp_c ?(models = []) corner_name =
  { corner_name; temp_c; model_overrides = models }

let typical = make "tt"

let fast =
  make "ff" ~temp_c:(-40.)
    ~models:
      [ ("MN", [ ("kp", 120e-6); ("vto", 0.7) ]);
        ("MP", [ ("kp", 48e-6); ("vto", 0.8) ]);
        ("QNPN", [ ("bf", 220.); ("cpi", 0.8e-12) ]);
        ("QPNP", [ ("bf", 75.); ("cpi", 1.2e-12) ]) ]

let slow =
  make "ss" ~temp_c:125.
    ~models:
      [ ("MN", [ ("kp", 80e-6); ("vto", 0.9) ]);
        ("MP", [ ("kp", 32e-6); ("vto", 1.0) ]);
        ("QNPN", [ ("bf", 100.); ("cpi", 1.3e-12) ]);
        ("QPNP", [ ("bf", 35.); ("cpi", 1.9e-12) ]) ]

let override_model (m : Circuit.Netlist.model) overrides =
  let params =
    List.fold_left
      (fun acc (k, v) ->
        (String.lowercase_ascii k, v)
        :: List.remove_assoc (String.lowercase_ascii k) acc)
      m.Circuit.Netlist.params overrides
  in
  { m with Circuit.Netlist.params }

let apply corner circ =
  let circ =
    match corner.temp_c with
    | Some t -> Circuit.Netlist.with_temp t circ
    | None -> circ
  in
  List.fold_left
    (fun c (model_name, overrides) ->
      match Circuit.Netlist.find_model c model_name with
      | Some m -> Circuit.Netlist.add_model c (override_model m overrides)
      | None ->
        invalid_arg
          (Printf.sprintf "Corners.apply: circuit has no model %S" model_name))
    circ corner.model_overrides

let across ?parallel corners circ analyse =
  let jobs =
    List.map
      (fun corner ->
        (corner.corner_name, fun () -> analyse (apply corner circ)))
      corners
  in
  Job.run_all ?parallel jobs

let temp_sweep ?parallel ~temps circ analyse =
  let jobs =
    List.map
      (fun t ->
        ( Printf.sprintf "%gC" t,
          fun () -> analyse (Circuit.Netlist.with_temp t circ) ))
      temps
  in
  List.map2 (fun t (_, r) -> (t, r)) temps (Job.run_all ?parallel jobs)
