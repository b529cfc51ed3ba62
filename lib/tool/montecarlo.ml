type spec = {
  passive_sigma : float;
  model_sigma : (string * string * float) list;
}

let default_spec = { passive_sigma = 0.05; model_sigma = [] }

(* Box-Muller on the explicit PRNG state. *)
let gaussian st =
  let u1 = Random.State.float st 1. +. epsilon_float in
  let u2 = Random.State.float st 1. in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let sample ~seed spec circ =
  let st = Random.State.make [| seed; 0x5eed |] in
  let jitter sigma v = v *. (1. +. (sigma *. gaussian st)) in
  let circ =
    Circuit.Netlist.map_devices
      (fun d ->
        match d with
        | Circuit.Netlist.Resistor x ->
          Circuit.Netlist.Resistor
            { x with r = jitter spec.passive_sigma x.r }
        | Circuit.Netlist.Capacitor x ->
          Circuit.Netlist.Capacitor
            { x with c = jitter spec.passive_sigma x.c }
        | Circuit.Netlist.Inductor x ->
          Circuit.Netlist.Inductor
            { x with l = jitter spec.passive_sigma x.l }
        | d -> d)
      circ
  in
  List.fold_left
    (fun c (model_name, param, sigma) ->
      match Circuit.Netlist.find_model c model_name with
      | None -> c
      | Some m ->
        let key = String.lowercase_ascii param in
        let current =
          Circuit.Netlist.model_param m param ~default:Float.nan
        in
        if Float.is_nan current then c
        else
          Circuit.Netlist.add_model c
            { m with
              Circuit.Netlist.params =
                (key, jitter sigma current)
                :: List.remove_assoc key m.Circuit.Netlist.params })
    circ spec.model_sigma

type 'a run = {
  samples : (int * ('a, exn) Result.t) list;
}

let run ?parallel ?(spec = default_spec) ~n ~seed circ analyse =
  let jobs =
    List.init n (fun k ->
        let s = seed + k in
        (Printf.sprintf "mc-%d" s, fun () -> analyse (sample ~seed:s spec circ)))
  in
  { samples =
      List.mapi (fun k (_, r) -> (seed + k, r)) (Job.run_all ?parallel jobs) }

type stats = {
  count : int;
  failures : int;
  mean : float;
  sigma : float;
  minimum : float;
  maximum : float;
}

let stats r =
  let ok =
    List.filter_map
      (fun (_, res) -> match res with Ok v -> Some v | Error _ -> None)
      r.samples
  in
  if ok = [] then invalid_arg "Montecarlo.stats: every sample failed";
  let n = float_of_int (List.length ok) in
  let mean = List.fold_left ( +. ) 0. ok /. n in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. ok /. n
  in
  { count = List.length r.samples;
    failures = List.length r.samples - List.length ok;
    mean;
    sigma = sqrt var;
    minimum = List.fold_left Float.min (List.hd ok) ok;
    maximum = List.fold_left Float.max (List.hd ok) ok }

let yield r ~ok =
  let pass =
    List.length
      (List.filter
         (fun (_, res) -> match res with Ok v -> ok v | Error _ -> false)
         r.samples)
  in
  float_of_int pass /. float_of_int (List.length r.samples)

let pp_stats ppf s =
  Format.fprintf ppf
    "%d samples (%d failed): mean %.4g, sigma %.4g, range [%.4g, %.4g]"
    s.count s.failures s.mean s.sigma s.minimum s.maximum
