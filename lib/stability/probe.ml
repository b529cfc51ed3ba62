open Numerics

type t = {
  mna : Engine.Mna.t;
  op : Engine.Dcop.t;
}

let sweeps_counter = Obs.Counter.make "probe.sweeps"
let sweeps_par_counter = Obs.Counter.make "probe.sweeps_par"
let points_counter = Obs.Counter.make "probe.points"

let prepare ?dc_options circ =
  let t0 = Obs.Span.enter () in
  let mna = Engine.Mna.compile circ in
  Obs.Span.leave "mna.compile" ~args:[ ("unknowns", mna.Engine.Mna.size) ] t0;
  let t1 = Obs.Span.enter () in
  let op = Engine.Dcop.solve ?options:dc_options mna in
  Obs.Span.leave "dc.op" t1;
  { mna; op }

(* Unit current pushed into node index [k]: rhs = +1 at k (the KCL
   convention of the engine counts injected current positive). *)
let excitation size k =
  let b = Array.make size Cx.zero in
  b.(k) <- Cx.one;
  b

let plan ?(gmin = 1e-12) t ~sweep =
  Engine.Ac_plan.compile ~gmin
    ~omega_ref:(Engine.Ac_plan.omega_ref (Sweep.points sweep))
    ~op:t.op t.mna

(* Below this many point-solves (unknowns x points x nets, a proxy for
   the sweep's arithmetic volume) the pool's chunking overhead outweighs
   the win and [`Auto] stays sequential. A 25-unknown op-amp swept at 30
   points/decade over six decades with every net probed sits well above
   it; a single-node toy tank stays under. *)
let auto_threshold = 50_000

let estimated_work ~unknowns ~points ~nets =
  unknowns * points * Int.max 1 nets

(* The [`Auto] seq/par decision, exposed whole so tests can pin it:
   distribute only when the sweep carries real arithmetic volume AND the
   pool will actually run worker domains. The second condition uses
   [effective_jobs] (requested jobs clamped to the core count), not the
   requested value — on a machine with fewer cores than [-j] asked for,
   "parallel" used to mean oversubscribed domains fighting the
   stop-the-world minor GC, the one mode that loses to sequential. *)
let auto_decision ~unknowns ~points ~nets =
  Parallel.Pool.effective_jobs () > 1
  && (not (Parallel.Pool.in_worker ()))
  && estimated_work ~unknowns ~points ~nets >= auto_threshold

let response_many ?(gmin = 1e-12) ?backend ?(parallel = `Auto) ?plan:shared
    ?kernel:shared_kernel ?health t ~sweep nodes =
  let size = t.mna.Engine.Mna.size in
  let backend =
    match (backend, shared_kernel, shared) with
    | Some b, _, _ -> b
    | None, Some _, _ ->
      (* A caller handing in a compiled kernel wants it used. *)
      `Kernel
    | None, None, Some _ ->
      (* A caller handing in a compiled plan wants it used. *)
      `Plan
    | None, None, None ->
      (* The compiled plan is the fast path for anything non-trivial;
         tiny systems keep the dense oracle's simplicity. *)
      if size <= Engine.Ac_plan.dense_cutoff then `Dense else `Plan
  in
  let indexed =
    List.map
      (fun n ->
        let i = Engine.Mna.node_index t.mna n in
        if i < 0 then
          invalid_arg "Probe.response_many: cannot probe the ground net";
        (n, i))
      nodes
  in
  let freqs = Sweep.points sweep in
  let per_node = List.map (fun (n, i) -> (n, i, Array.make
                                            (Array.length freqs) Cx.zero))
                   indexed in
  (* One plan compilation — and thus exactly one symbolic analysis — per
     sweep, unless the caller shares one across sweeps (the refinement
     pass re-probes many zoom windows of one circuit: same MNA pattern,
     same symbolic analysis, zero recompilation). The plan and kernel
     backends fill the plan's O(nnz) skeleton instead of stamping a
     dense matrix. *)
  let plan =
    match backend with
    | `Dense -> None
    | `Plan | `Kernel ->
      (match shared with
       | Some p -> Some p
       | None ->
         (match shared_kernel with
          | Some _ when backend = `Kernel ->
            (* The kernel carries its plan; no need for another. *)
            None
          | _ ->
            Some
              (Engine.Ac_plan.compile ~gmin
                 ~omega_ref:(Engine.Ac_plan.omega_ref freqs) ~op:t.op t.mna)))
  in
  (* The kernel backend compiles the plan one step further: the frozen
     elimination schedule flattened into a straight-line factor/solve
     program (cheap — no factorisation — and fingerprint-cached by
     Tool.Cache when the pipeline drives this). *)
  let kernel =
    match backend with
    | `Kernel ->
      (match shared_kernel with
       | Some k -> Some k
       | None -> Some (Engine.Kernel.compile (Option.get plan)))
    | `Dense | `Plan -> None
  in
  (* The probe excitations carry no frequency dependence; build the
     multi-RHS batch once per sweep for every backend (solves never
     mutate their RHS, and the batch is only read afterwards, so sharing
     it across domains is safe). *)
  let bs =
    Array.of_list (List.map (fun (_, i, _) -> excitation size i) per_node)
  in
  (* The dense path stamps the pencil afresh at every point; the device
     linearisation behind it is done once per sweep. *)
  let prims =
    match backend with
    | `Dense -> Engine.Linearize.of_op t.op
    | `Plan | `Kernel -> []
  in
  let run_point fk =
    let omega = 2. *. Float.pi *. freqs.(fk) in
    match (backend, plan) with
    | `Plan, Some plan ->
      (* One numeric refactorisation, then every probed node as one
         multi-RHS batch against the same factor. Health recording
         happens inside [solve_many], sampled — the per-point body
         itself stays instrumentation-free. *)
      let xs = Engine.Ac_plan.solve_many ?health plan ~omega bs in
      List.iteri (fun q (_, i, out) -> out.(fk) <- xs.(q).(i)) per_node
    | `Kernel, Some _ ->
      (* Kernel sweeps never route through the per-point body — they run
         chunked below. *)
      assert false
    | `Dense, _ | _, None ->
      let a = Engine.Ac.matrix_at t.mna prims ~gmin ~omega in
      let lu = Cmat.lu_factor a in
      List.iteri
        (fun q (_, i, out) -> out.(fk) <- (Cmat.lu_solve lu bs.(q)).(i))
        per_node;
      if Engine.Health.tick () && Array.length bs > 0 then
        Engine.Ac.dense_health ?meter:health a lu
          ~x:(Cmat.lu_solve lu bs.(0)) ~b:bs.(0)
  in
  let go_parallel =
    match parallel with
    | `Seq -> false
    | `Par -> true
    | `Auto ->
      auto_decision ~unknowns:size ~points:(Array.length freqs)
        ~nets:(List.length nodes)
  in
  (* Frequency points are independent, and each point writes disjoint
     cells of the pre-allocated result arrays — the shared plan is
     immutable after compilation, so pooled execution is bit-identical
     to sequential. Participants of the persistent pool claim chunks
     from one shared cursor: no per-sweep domain spawns, and a slow
     chunk delays only its own participant. The span wraps the whole
     sweep, never the per-point body: [run_point] must stay
     allocation-free of instrumentation. *)
  Obs.Counter.incr sweeps_counter;
  if go_parallel then Obs.Counter.incr sweeps_par_counter;
  Obs.Counter.add points_counter (Array.length freqs);
  let t0 = Obs.Span.enter () in
  (match kernel with
   | Some kern ->
     (* Kernel execution is chunked: one workspace advances [chunk]
        consecutive points per invocation, so workspace setup amortises
        and the pool deals whole chunks. Chunks write disjoint cells of
        the preallocated outputs, and chunk boundaries do not enter the
        arithmetic — parallel stays bit-identical to sequential. *)
     let sel = Array.of_list (List.map (fun (_, i, _) -> i) per_node) in
     let outs = Array.of_list (List.map (fun (_, _, out) -> out) per_node) in
     let npts = Array.length freqs in
     let cp = Engine.Kernel.chunk in
     let nchunks = (npts + cp - 1) / cp in
     let run_chunk ck =
       let lo = ck * cp in
       let hi = Int.min npts (lo + cp) in
       let ws = Engine.Kernel.workspace kern ~rhs:bs in
       Engine.Kernel.run ?health ws ~freqs ~lo ~hi ~sel ~outs
     in
     if go_parallel then Parallel.Pool.parallel_for ~n:nchunks run_chunk
     else
       for ck = 0 to nchunks - 1 do
         run_chunk ck
       done
   | None ->
     if go_parallel then
       Parallel.Pool.parallel_for ~n:(Array.length freqs) run_point
     else
       for fk = 0 to Array.length freqs - 1 do
         run_point fk
       done);
  Obs.Span.leave "probe.sweep"
    ~args:
      [ ("points", Array.length freqs);
        ("nets", List.length nodes);
        ("parallel", if go_parallel then 1 else 0) ]
    t0;
  List.map (fun (n, _, h) -> (n, Waveform.Freq.make freqs h)) per_node

let response ?gmin t ~sweep node =
  match response_many ?gmin t ~sweep [ node ] with
  | [ (_, w) ] -> w
  | _ -> assert false

let response_via_netlist ?gmin ?dc_options circ ~sweep node =
  let probed = Circuit.Transform.with_ac_current_probe circ node in
  let ac = Engine.Ac.run ?dc_options ?gmin ~sweep probed in
  Engine.Ac.v ac node
