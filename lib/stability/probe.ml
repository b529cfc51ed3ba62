open Numerics

type t = {
  mna : Engine.Mna.t;
  op : Engine.Dcop.t;
  blocks : Engine.Blocks.t;
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
  (* The strongly connected blocks of the pencil at this operating
     point, once per prepared probe: every plan, kernel and dense solve
     of a probe runs against the block that holds the probed net. *)
  let t2 = Obs.Span.enter () in
  let blocks = Engine.Blocks.of_pencil mna (Engine.Linearize.of_op op) in
  Obs.Span.leave "probe.blocks"
    ~args:
      [ ("blocks", Engine.Blocks.count blocks);
        ("largest",
         Array.fold_left
           (fun acc m -> Int.max acc (Array.length m))
           0 blocks.Engine.Blocks.members) ]
    t2;
  { mna; op; blocks }

let block_of t node =
  t.blocks.Engine.Blocks.block_of.(Engine.Mna.node_index t.mna node)

(* Unit current pushed into node index [k]: rhs = +1 at k (the KCL
   convention of the engine counts injected current positive). *)
let excitation size k =
  let b = Array.make size Cx.zero in
  b.(k) <- Cx.one;
  b

let plan ?(gmin = 1e-12) t ~sweep =
  Engine.Ac_plan.on_demand ~gmin
    ~omega_ref:(Engine.Ac_plan.omega_ref (Sweep.points sweep))
    ~op:t.op ~blocks:t.blocks t.mna

(* Below this many point-solves (unknowns x points x nets of one block,
   a proxy for the block sweep's arithmetic volume) the pool's chunking
   overhead outweighs the win and [`Auto] stays sequential. A 25-unknown op-amp swept at 30
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
  let blocks = t.blocks in
  let nblocks = Engine.Blocks.count blocks in
  let per_block what n =
    if n <> nblocks then
      invalid_arg
        (Printf.sprintf "Probe.response_many: %d %s for %d blocks" n what
           nblocks)
  in
  Option.iter (fun p -> per_block "plans" (Engine.Ac_plan.count p)) shared;
  Option.iter
    (fun k -> per_block "kernels" (Engine.Ac_plan.count (Engine.Kernel.plans k)))
    shared_kernel;
  Option.iter (fun h -> per_block "health meters" (Array.length h)) health;
  let backend =
    match (backend, shared_kernel, shared) with
    | Some b, _, _ -> b
    | None, Some _, _ ->
      (* A caller handing in compiled kernels wants them used. *)
      `Kernel
    | None, None, Some _ ->
      (* A caller handing in compiled plans wants them used. *)
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
  let npts = Array.length freqs in
  let outs =
    Array.of_list (List.map (fun _ -> Array.make npts Cx.zero) indexed)
  in
  (* One plan set per sweep, unless the caller shares one across sweeps
     (the refinement pass re-probes many zoom windows of one circuit:
     same pattern, same symbolic analyses, zero recompilation). The
     plan and kernel backends fill each block plan's O(nnz) skeleton
     instead of stamping a dense matrix. The kernel backend compiles
     each block plan one step further: the frozen elimination schedule
     flattened into a straight-line factor/solve program (cheap — no
     factorisation — and cached by Tool.Cache when the pipeline drives
     this). Both sets compile a block only when a sweep probes it. *)
  let plans, kernels =
    match backend with
    | `Dense -> (None, None)
    | `Plan ->
      (Some (match shared with Some p -> p | None -> plan ~gmin t ~sweep),
       None)
    | `Kernel ->
      let ks =
        match (shared_kernel, shared) with
        | Some k, _ -> k
        | None, Some p -> Engine.Kernel.on_demand p
        | None, None -> Engine.Kernel.on_demand (plan ~gmin t ~sweep)
      in
      (Some (Engine.Kernel.plans ks), Some ks)
  in
  (* The dense path stamps the pencil afresh at every point; the device
     linearisation behind it is done once per sweep. *)
  let prims =
    match backend with
    | `Dense -> Engine.Linearize.of_op t.op
    | `Plan | `Kernel -> []
  in
  (* Block [b] sweeps the probed nets it holds, in the caller's order:
     their positions in [nodes] and their indices inside the block.
     T_k = e_k' (G + sC)^-1 e_k depends only on k's diagonal block, so
     each net is solved against its block alone, and the unprobed
     blocks are never factored. *)
  let groups = Array.make nblocks [] in
  List.iteri
    (fun q (_, i) ->
      let b = blocks.Engine.Blocks.block_of.(i) in
      groups.(b) <- (q, blocks.Engine.Blocks.local.(i)) :: groups.(b))
    indexed;
  let sweep_block b group =
    let group = Array.of_list (List.rev group) in
    let sel = Array.map snd group in
    let bouts = Array.map (fun (q, _) -> outs.(q)) group in
    let bsize = Engine.Blocks.size blocks b in
    let health = Option.map (fun h -> h.(b)) health in
    (* The probe excitations carry no frequency dependence; build the
       multi-RHS batch once per block sweep for every backend (solves
       never mutate their RHS, and the batch is only read afterwards,
       so sharing it across domains is safe). *)
    let bs = Array.map (excitation bsize) sel in
    let go_parallel =
      match parallel with
      | `Seq -> false
      | `Par -> true
      | `Auto ->
        auto_decision ~unknowns:bsize ~points:npts ~nets:(Array.length sel)
    in
    (* Frequency points are independent, and each point writes disjoint
       cells of the pre-allocated result arrays — the shared plans are
       immutable after compilation, so pooled execution is bit-identical
       to sequential. Participants of the persistent pool claim chunks
       from one shared cursor: no per-sweep domain spawns, and a slow
       chunk delays only its own participant. *)
    (match kernels with
     | Some ks ->
       let k = Engine.Kernel.get ks b in
       (* Kernel execution is chunked: one workspace advances [chunk]
          consecutive points per invocation, so workspace setup
          amortises and the pool deals whole chunks. Chunk boundaries
          do not enter the arithmetic. *)
       let cp = Engine.Kernel.chunk in
       let nchunks = (npts + cp - 1) / cp in
       let run_chunk ck =
         let lo = ck * cp in
         let hi = Int.min npts (lo + cp) in
         let ws = Engine.Kernel.workspace k ~rhs:bs in
         Engine.Kernel.run ?health ws ~freqs ~lo ~hi ~sel ~outs:bouts
       in
       if go_parallel then Parallel.Pool.parallel_for ~n:nchunks run_chunk
       else
         for ck = 0 to nchunks - 1 do
           run_chunk ck
         done
     | None ->
       let run_point fk =
         let omega = 2. *. Float.pi *. freqs.(fk) in
         match plans with
         | Some ps ->
           let p = Engine.Ac_plan.get ps b in
           (* One numeric refactorisation, then every probed net of the
              block as one multi-RHS batch against the same factor.
              Health recording happens inside [solve_many], sampled —
              the per-point body itself stays instrumentation-free. *)
           let xs = Engine.Ac_plan.solve_many ?health p ~omega bs in
           Array.iteri (fun q i -> bouts.(q).(fk) <- xs.(q).(i)) sel
         | None ->
           let a =
             Engine.Ac.block_matrix_at blocks b t.mna prims ~gmin ~omega
           in
           let lu = Cmat.lu_factor a in
           Array.iteri
             (fun q i -> bouts.(q).(fk) <- (Cmat.lu_solve lu bs.(q)).(i))
             sel;
           if Engine.Health.tick () then
             Engine.Ac.dense_health ?meter:health a lu
               ~x:(Cmat.lu_solve lu bs.(0)) ~b:bs.(0)
       in
       if go_parallel then Parallel.Pool.parallel_for ~n:npts run_point
       else
         for fk = 0 to npts - 1 do
           run_point fk
         done);
    go_parallel
  in
  (* Every block this sweep probes and no earlier sweep compiled, from
     one fold of the pencil. *)
  Option.iter
    (fun ps ->
      Engine.Ac_plan.need ps
        (List.filter (fun b -> groups.(b) <> []) (List.init nblocks Fun.id)))
    plans;
  (* The span wraps the whole sweep, never the per-point body: the
     point loops must stay allocation-free of instrumentation. *)
  Obs.Counter.incr sweeps_counter;
  Obs.Counter.add points_counter npts;
  let t0 = Obs.Span.enter () in
  let probed = ref 0 and pooled = ref false in
  Array.iteri
    (fun b group ->
      if group <> [] then begin
        incr probed;
        if sweep_block b group then pooled := true
      end)
    groups;
  if !pooled then Obs.Counter.incr sweeps_par_counter;
  Obs.Span.leave "probe.sweep"
    ~args:
      [ ("points", npts);
        ("nets", List.length nodes);
        ("blocks", !probed);
        ("parallel", if !pooled then 1 else 0) ]
    t0;
  (* The sweep owns [freqs] and [outs] (Sweep.points is a fresh array),
     so every response holds them as they are: one frequency array for
     all the nets. *)
  List.mapi (fun q (n, _) -> (n, { Waveform.Freq.freqs; h = outs.(q) }))
    indexed

let response ?gmin t ~sweep node =
  match response_many ?gmin t ~sweep [ node ] with
  | [ (_, w) ] -> w
  | _ -> assert false

let response_via_netlist ?gmin ?dc_options circ ~sweep node =
  let probed = Circuit.Transform.with_ac_current_probe circ node in
  let ac = Engine.Ac.run ?dc_options ?gmin ~sweep probed in
  Engine.Ac.v ac node
