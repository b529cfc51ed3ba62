type options = {
  gmin : float;
  reltol : float;
  vntol : float;
  abstol : float;
  max_iter : int;
  max_step : float;
}

let default_options =
  { gmin = 1e-12; reltol = 1e-6; vntol = 1e-9; abstol = 1e-12;
    max_iter = 150; max_step = 5. }

type strategy = Direct | Gmin_stepping | Source_stepping

type t = {
  mna : Mna.t;
  x : float array;
  iterations : int;
  strategy : strategy;
}

exception No_convergence of string

let log_src = Logs.Src.create "engine.dcop" ~doc:"DC operating point"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Homotopy fallbacks, next to the acplan.* counters: a deck that only
   converges through the ladder is worth flagging in a manifest diff. *)
let n_gmin_fallback = Obs.Counter.make "dcop.fallback_gmin"
let n_source_fallback = Obs.Counter.make "dcop.fallback_source"

(* Every public operating-point solve, fallbacks or not. The cache layer
   ([Tool.Cache]) asserts this stays flat across warm requests: a cache
   hit must not re-solve DC. *)
let n_solves = Obs.Counter.make "dcop.solves"

(* Solves that went through the sparse linear fast path below. *)
let n_sparse_linear = Obs.Counter.make "dcop.sparse_linear"

let converged opts ~n_nodes x_old x_new =
  let ok = ref true in
  Array.iteri
    (fun i v_new ->
      let v_old = x_old.(i) in
      let atol = if i < n_nodes then opts.vntol else opts.abstol in
      let tol =
        (opts.reltol *. Float.max (Float.abs v_new) (Float.abs v_old)) +. atol
      in
      if Float.abs (v_new -. v_old) > tol then ok := false)
    x_new;
  !ok

let newton ?(unknown_name = fun k -> Printf.sprintf "unknown %d" k) ~size
    ~n_nodes ~load ~x0 opts =
  let x = Array.copy x0 in
  let result = ref None in
  let abort = ref None in
  let iter = ref 0 in
  (try
     while !result = None && !iter < opts.max_iter do
       incr iter;
       let a = Numerics.Rmat.create size size in
       let b = Array.make size 0. in
       let limited = load ~x a b in
       let x_new =
         try Numerics.Rmat.solve a b
         with Numerics.Dense.Singular col ->
           raise (No_convergence
                    (Printf.sprintf "singular matrix at %s"
                       (unknown_name col)))
       in
       if Array.exists (fun v -> not (Float.is_finite v)) x_new then
         raise (No_convergence "non-finite solution");
       (* Clamp huge node-voltage excursions; junction limiting already
          bounds the exponentials, this guards LC/controlled-source blowups
          during early iterations. *)
       let worst = ref 0. in
       for i = 0 to n_nodes - 1 do
         worst := Float.max !worst (Float.abs (x_new.(i) -. x.(i)))
       done;
       let damp =
         if !worst > opts.max_step then opts.max_step /. !worst else 1.
       in
       let x_next =
         if damp = 1. then x_new
         else Array.mapi (fun i v -> x.(i) +. (damp *. (v -. x.(i)))) x_new
       in
       if (not limited) && damp = 1. && converged opts ~n_nodes x x_next
       then begin
         (* One matvec on the final Jacobian: the scaled residual of the
            converged solve, into the health histograms. *)
         let vec_inf v =
           Array.fold_left (fun acc e -> Float.max acc (Float.abs e)) 0. v
         in
         Health.record_dc_residual
           (Health.relative_residual ~norm1:(Numerics.Rmat.norm1 a)
              ~residual_inf:(Numerics.Rmat.residual_inf a x_next b)
              ~x_inf:(vec_inf x_next) ~b_inf:(vec_inf b));
         result := Some (x_next, !iter)
       end
       else Array.blit x_next 0 x 0 size
     done
   with No_convergence m ->
     result := None;
     iter := opts.max_iter;
     abort := Some m;
     Log.debug (fun f -> f "newton aborted: %s" m));
  match (!result, !abort) with
  | Some (x, n), _ -> Ok (x, n)
  | None, Some m -> Error m
  | None, None ->
    Error (Printf.sprintf "no convergence in %d iterations" !iter)

(* One Newton attempt at a given gmin and source scale. *)
let attempt mna opts ~gmin ~src_scale ~x0 =
  let limst = Stamps.make_limit_state mna in
  let load ~x a b =
    Stamps.stamp_static mna
      ~src_value:(fun spec -> src_scale *. spec.Circuit.Netlist.dc)
      a b;
    (* Inductors are DC shorts: branch equation v_i - v_j = 0. *)
    Array.iter
      (fun (_, e) ->
        match e with
        | Mna.E_ind { i; j; br; _ } ->
          Mna.stamp_mat a i br 1.;
          Mna.stamp_mat a j br (-1.);
          Mna.stamp_mat a br i 1.;
          Mna.stamp_mat a br j (-1.)
        | _ -> ())
      mna.Mna.elems;
    Stamps.stamp_gmin mna ~gmin a;
    Stamps.stamp_nonlinear mna ~x ~limst a b
  in
  newton ~unknown_name:(Mna.unknown_name mna) ~size:mna.Mna.size
    ~n_nodes:mna.Mna.n_nodes ~load ~x0 opts

(* Initial guess from the circuit's .nodeset directives: Newton starts at
   the hinted voltages and, for a multi-stable circuit, converges to the
   intended operating point. *)
let nodeset_x0 mna =
  let x = Array.make mna.Mna.size 0. in
  List.iter
    (function
      | Circuit.Netlist.Nodeset entries ->
        List.iter
          (fun (n, v) ->
            match Mna.node_index mna n with
            | i when i >= 0 -> x.(i) <- v
            | _ -> ()
            | exception Mna.Compile_error _ -> ())
          entries
      | _ -> ())
    (Circuit.Netlist.directives mna.Mna.circ);
  x

(* Simulator options from the netlist's .options card, over the
   defaults. An explicit [options] argument wins over both. *)
let circuit_options circ =
  let o k ~default = Circuit.Netlist.option_value circ k ~default in
  { gmin = o "gmin" ~default:default_options.gmin;
    reltol = o "reltol" ~default:default_options.reltol;
    vntol = o "vntol" ~default:default_options.vntol;
    abstol = o "abstol" ~default:default_options.abstol;
    max_iter =
      int_of_float
        (o "itl1" ~default:(float_of_int default_options.max_iter));
    max_step = o "maxstep" ~default:default_options.max_step }

(* ---- sparse linear fast path ---- *)

(* A circuit without junction devices has a constant Jacobian: its
   operating point is one linear solve, not a Newton iteration. The
   dense path allocates an O(size^2) matrix per iteration, which is the
   wall between the shipped op-amps and the 1k-10k-unknown synthetic
   benchmark decks; above this cutoff linear circuits go through one
   sparse Gilbert-Peierls factorisation instead. Below it the dense
   Newton oracle is kept unconditionally, so the shipped small decks
   (and their golden reports) take exactly the code path they always
   did. *)
let sparse_linear_cutoff = 256

let is_linear mna =
  Array.for_all
    (fun (_, e) ->
      match e with
      | Mna.E_diode _ | Mna.E_bjt _ | Mna.E_mos _ -> false
      | _ -> true)
    mna.Mna.elems

(* The DC matrix of a linear circuit is the pencil's G (capacitors and
   mutual inductances open, inductors shorted by their branch rows, gmin
   on the node diagonal), harvested as sparse triplets; the right-hand
   side carries the V and I sources' DC values. Returns [None] (caller
   falls back to dense Newton) on a singular or non-finite solve. *)
let sparse_linear_attempt mna opts =
  let size = mna.Mna.size in
  let ts = ref [] in
  Stamps.pencil mna [] ~gmin:opts.gmin (fun i j g _ ->
      if g <> 0. then ts := (i, j, g) :: !ts);
  let b = Array.make size 0. in
  Array.iter
    (fun (_, e) ->
      match e with
      | Mna.E_vsrc { br; spec; _ } -> Mna.stamp_rhs b br spec.dc
      | Mna.E_isrc { i; j; spec } ->
        Mna.stamp_rhs b i (-.spec.dc);
        Mna.stamp_rhs b j spec.dc
      | _ -> ())
    mna.Mna.elems;
  match
    let a = Numerics.Srmat.of_triplets ~rows:size ~cols:size !ts in
    let x = Numerics.Srmat.lu_solve (Numerics.Srmat.lu_factor a) b in
    (a, x)
  with
  | exception Numerics.Sparse.Singular _ -> None
  | a, x ->
    if Array.exists (fun v -> not (Float.is_finite v)) x then None
    else begin
      let vec_inf v =
        Array.fold_left (fun acc e -> Float.max acc (Float.abs e)) 0. v
      in
      Health.record_dc_residual
        (Health.relative_residual ~norm1:(Numerics.Srmat.norm1 a)
           ~residual_inf:(Numerics.Srmat.residual_inf a x b)
           ~x_inf:(vec_inf x) ~b_inf:(vec_inf b));
      Some x
    end

let solve ?options ?x0 ?force_strategy mna =
  Obs.Counter.incr n_solves;
  let options =
    match options with
    | Some o -> o
    | None -> circuit_options mna.Mna.circ
  in
  let x0 =
    match x0 with Some x -> Array.copy x | None -> nodeset_x0 mna
  in
  let last_err = ref None in
  let finish strategy = function
    | Ok (x, iterations) -> Some { mna; x; iterations; strategy }
    | Error m ->
      last_err := Some m;
      None
  in
  (* 0. Sparse linear fast path: big circuits with a constant Jacobian
     are one sparse solve. Any trouble (singular, non-finite) falls
     straight through to the usual ladder. *)
  let sparse_direct =
    if force_strategy = None && mna.Mna.size >= sparse_linear_cutoff
       && is_linear mna
    then
      match sparse_linear_attempt mna options with
      | Some x ->
        Obs.Counter.incr n_sparse_linear;
        Some { mna; x; iterations = 1; strategy = Direct }
      | None -> None
    else None
  in
  match sparse_direct with
  | Some r -> r
  | None ->
  (* 1. Direct attempt (unless a fallback is being exercised). *)
  let direct =
    match force_strategy with
    | None ->
      finish Direct (attempt mna options ~gmin:options.gmin ~src_scale:1. ~x0)
    | Some _ -> None
  in
  match direct with
  | Some r -> r
  | None ->
    Log.info (fun f -> f "direct Newton failed; trying gmin stepping");
    Obs.Counter.incr n_gmin_fallback;
    (* 2. Gmin stepping: converge with a heavy shunt, then relax it. *)
    let rec gmin_steps x = function
      | [] -> Some x
      | g :: rest ->
        (match attempt mna options ~gmin:g ~src_scale:1. ~x0:x with
         | Ok (x', _) -> gmin_steps x' rest
         | Error _ -> None)
    in
    let gmin_ladder =
      [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-11;
        options.gmin ]
    in
    let via_gmin =
      if force_strategy = Some `Source_stepping then None
      else
      match gmin_steps x0 gmin_ladder with
      | Some x ->
        finish Gmin_stepping
          (attempt mna options ~gmin:options.gmin ~src_scale:1. ~x0:x)
      | None -> None
    in
    (match via_gmin with
     | Some r -> r
     | None ->
       Log.info (fun f -> f "gmin stepping failed; trying source stepping");
       Obs.Counter.incr n_source_fallback;
       (* 3. Source stepping with adaptive step size. *)
       let x = ref x0 and alpha = ref 0. and step = ref 0.1 in
       let failed = ref false in
       while !alpha < 1. && not !failed do
         let target = Float.min 1. (!alpha +. !step) in
         match
           attempt mna options ~gmin:options.gmin ~src_scale:target ~x0:!x
         with
         | Ok (x', _) ->
           x := x';
           alpha := target;
           step := Float.min 0.5 (!step *. 1.5)
         | Error _ ->
           step := !step /. 4.;
           if !step < 1e-4 then failed := true
       done;
       if !failed then
         raise
           (No_convergence
              (Printf.sprintf
                 "DC operating point of %S: all strategies failed \
                  (source stepping stalled at scale %.4f%s)"
                 (Circuit.Netlist.title mna.Mna.circ) !alpha
                 (match !last_err with
                  | Some m -> "; last error: " ^ m
                  | None -> "")))
       else { mna; x = !x; iterations = 0; strategy = Source_stepping })

let node_v t n =
  let i = Mna.node_index t.mna n in
  if i < 0 then 0. else t.x.(i)

let branch_current t name = t.x.(Mna.branch_index t.mna name)

type device_op =
  | Op_diode of { vd : float; id : float; gd : float }
  | Op_bjt of { vbe : float; vbc : float; ic : float; ib : float;
                gm : float; gpi : float; go : float; region : string }
  | Op_mos of { vgs : float; vds : float; ids : float; gm : float;
                gds : float; region : string }

let v_at x i = if i < 0 then 0. else x.(i)

let device_ops t =
  let temp_c = t.mna.Mna.temp_c in
  let x = t.x in
  Array.to_list t.mna.Mna.elems
  |> List.filter_map (fun (name, e) ->
      match e with
      | Mna.E_diode { i; j; p; area } ->
        let vd = v_at x i -. v_at x j in
        let ss = Devices.Diode_model.small_signal p ~area ~temp_c ~vd in
        let r = Devices.Diode_model.dc p ~area ~temp_c ~vd ~vd_old:vd in
        Some (name, Op_diode { vd; id = r.id; gd = ss.gd })
      | Mna.E_bjt { c; b; e = ne; p; area; sign } ->
        let vbe = sign *. (v_at x b -. v_at x ne) in
        let vbc = sign *. (v_at x b -. v_at x c) in
        let d =
          Devices.Bjt_model.dc p ~area ~temp_c ~vbe ~vbc ~vbe_old:vbe
            ~vbc_old:vbc
        in
        let ss = Devices.Bjt_model.small_signal p ~area ~temp_c ~vbe ~vbc in
        let region =
          if vbe > 0.3 && vbc <= 0.3 then "forward-active"
          else if vbe > 0.3 && vbc > 0.3 then "saturation"
          else if vbe <= 0.3 && vbc <= 0.3 then "cutoff"
          else "reverse"
        in
        Some (name,
              Op_bjt { vbe; vbc; ic = sign *. d.ic; ib = sign *. d.ib;
                       gm = ss.gm; gpi = ss.gpi;
                       go = -.(ss.gout +. ss.gmu); region })
      | Mna.E_mos { d; g; s; p; w; l; sign; _ } ->
        let vgs = sign *. (v_at x g -. v_at x s) in
        let vds = sign *. (v_at x d -. v_at x s) in
        let r = Devices.Mos_model.dc p ~w ~l ~vgs ~vds in
        let ss = Devices.Mos_model.small_signal p ~w ~l ~vgs ~vds in
        let region =
          match r.region with
          | Devices.Mos_model.Cutoff -> "cutoff"
          | Devices.Mos_model.Triode -> "triode"
          | Devices.Mos_model.Saturation -> "saturation"
        in
        Some (name,
              Op_mos { vgs; vds; ids = sign *. r.ids; gm = ss.gm;
                       gds = ss.gds; region })
      | _ -> None)

let pp_report ppf t =
  let fmt = Numerics.Engnum.format in
  Format.fprintf ppf "Operating point of %S (%d unknowns)@."
    (Circuit.Netlist.title t.mna.Mna.circ)
    t.mna.Mna.size;
  Array.iter
    (fun n -> Format.fprintf ppf "  V(%s) = %sV@." n (fmt (node_v t n)))
    (Circuit.Topology.nodes t.mna.Mna.topo);
  List.iter
    (fun (name, op) ->
      match op with
      | Op_diode { vd; id; gd } ->
        Format.fprintf ppf "  %s: vd=%sV id=%sA gd=%sS@." name (fmt vd)
          (fmt id) (fmt gd)
      | Op_bjt { vbe; vbc; ic; ib; gm; gpi; go; region } ->
        Format.fprintf ppf
          "  %s: %s vbe=%sV vbc=%sV ic=%sA ib=%sA gm=%sS gpi=%sS go=%sS@."
          name region (fmt vbe) (fmt vbc) (fmt ic) (fmt ib) (fmt gm)
          (fmt gpi) (fmt go)
      | Op_mos { vgs; vds; ids; gm; gds; region } ->
        Format.fprintf ppf "  %s: %s vgs=%sV vds=%sV id=%sA gm=%sS gds=%sS@."
          name region (fmt vgs) (fmt vds) (fmt ids) (fmt gm) (fmt gds))
    (device_ops t)
