open Numerics

(* A compiled AC solve plan (DESIGN.md "AC solve pipeline").

   The small-signal MNA system of a linear(ised) circuit is the pencil
       A(w) = G + jw C
   that [Stamps.pencil] defines: G collects every frequency-independent
   stamp (conductances, transconductances, controlled-source gains,
   source/inductor incidence rows, gmin) and C every reactive
   coefficient (capacitances, negated inductances and mutuals). The plan
   sums the pencil's entries into CSC arrays. G and C share one sparsity
   pattern, and that pattern does not depend on frequency. Compiling the
   pattern once per sweep turns each frequency point into
     - an O(nnz) numeric fill of the shared CSC skeleton, and
     - one numeric refactorisation along the frozen symbolic analysis,
   with no dense matrix and no per-point triplet harvesting. One factor
   then serves every probed node at that frequency via a multi-RHS batch
   solve.

   The probes compile one plan per strongly connected block of the
   pencil ([Blocks]): a net's driving-point response depends only on
   its block, so each plan holds one diagonal block at local indices
   and runs its own symbolic analysis. A probe compiles a block's plan
   when it first probes that block ([set]), so the blocks nobody probes
   are never compiled. [compile] is the one-block case, the whole
   system, for the AC analysis whose sources drive every block. *)

type totals = {
  symbolic : int;
  numeric : int;
  fallback : int;
  rhs : int;
}

(* Process-wide counters, registered with [Obs.Counter] so traces,
   [--metrics] summaries and diagnostics reports carry the same values
   the tests assert (atomic: the Domain-parallel sweep paths bump them
   concurrently). Tests assert the "one symbolic analysis per sweep,
   one numeric factorisation per frequency point" contract from deltas
   of these, and the benchmark reports them. *)
let n_symbolic = Obs.Counter.make "acplan.symbolic"
let n_numeric = Obs.Counter.make "acplan.numeric"
let n_fallback = Obs.Counter.make "acplan.fallback"
let n_rhs = Obs.Counter.make "acplan.rhs"
let rhs_batch_max = Obs.Counter.make "acplan.rhs_batch_max"

let totals () =
  { symbolic = Obs.Counter.value n_symbolic;
    numeric = Obs.Counter.value n_numeric;
    fallback = Obs.Counter.value n_fallback;
    rhs = Obs.Counter.value n_rhs }

type t = {
  size : int;
  colptr : int array;
  rowidx : int array;
  gvals : float array;     (* constant part G, aligned with rowidx *)
  cvals : float array;     (* reactive part C: A = G + jw C *)
  sym : Scmat.symbolic;    (* frozen ordering + fill-in pattern *)
}

let nnz t = t.colptr.(t.size)

(* Below this unknown count the dense path's simplicity wins over plan
   compilation; above it the plan is both the fast path and the default.
   (The crossover is shallow: even ~15-unknown systems refactor faster
   than they dense-LU, so the cutoff just keeps toy circuits on the
   simple oracle path.) *)
let dense_cutoff = 10

(* Relative pivot floor below which a frozen pivot order is declared
   stale for this frequency and the plan falls back to a fresh pivoting
   factorisation: bounds element growth (and thus the solve error) at
   ~1e6 while keeping fallbacks rare. *)
let pivot_tol = 1e-6

(* Mid-band reference frequency of a sweep, the geometric mean of its
   end points: seeds the plan's pivot order. *)
let omega_ref freqs =
  if Array.length freqs = 0 then 2e6 *. Float.pi
  else
    2. *. Float.pi *. sqrt (freqs.(0) *. freqs.(Array.length freqs - 1))

(* ---- skeleton compilation ---- *)

(* The plans of a circuit's blocks, each compiled when a probe first
   needs it: a request that probes one block of a chain pays one
   symbolic analysis, and a block no request probes costs nothing but
   its empty cell. The cells are atomics, not [Lazy.t]s: pool domains
   may fill one set at once, and racing domains store equal plans. *)
type set = {
  mna : Mna.t;
  op : Dcop.t;
  blocks : Blocks.t;
  gmin : float;
  omega_ref : float;
  cells : t option Atomic.t array;
}

let on_demand ?(gmin = 1e-12) ?(omega_ref = 2e6 *. Float.pi) ~op ~blocks
    mna =
  { mna; op; blocks; gmin; omega_ref;
    cells = Array.init (Blocks.count blocks) (fun _ -> Atomic.make None) }

let count s = Array.length s.cells

(* Compile the blocks that have a table in [tbls], from one fold of the
   pencil: each entry inside such a block is summed into that block's
   table at its local (row, column), in the pencil's order. Which other
   blocks are compiled with it, or before it, changes neither the
   entries of a block nor their order, so a block's plan has the same
   bits however it came to be compiled; on the one-block identity map
   ([Blocks.whole]) they are those of a whole-system compile. *)
let compile_into s tbls =
  let blocks = s.blocks in
  let t_compile = Obs.Span.enter () in
  (* Accumulate the pencil's (g, c) per matrix entry. *)
  Blocks.pencil blocks s.mna (Linearize.of_op s.op) ~gmin:s.gmin
    (fun b i j g c ->
      match tbls.(b) with
      | None -> ()
      | Some tbl ->
        let key = (j * Blocks.size blocks b) + i in
        let gr, cr =
          match Hashtbl.find_opt tbl key with
          | Some cell -> cell
          | None ->
            let cell = (ref 0., ref 0.) in
            Hashtbl.add tbl key cell;
            cell
        in
        gr := !gr +. g;
        cr := !cr +. c);
  let plan_of b tbl =
    let size = Blocks.size blocks b in
    (* Flatten to CSC, columns then rows ascending. *)
    let entries =
      Hashtbl.fold (fun key (g, c) acc -> (key, !g, !c) :: acc) tbl []
      |> List.sort (fun (x, _, _) (y, _, _) -> compare x y)
    in
    let n = List.length entries in
    let colptr = Array.make (size + 1) 0 in
    let rowidx = Array.make n 0 in
    let gvals = Array.make n 0. and cvals = Array.make n 0. in
    List.iteri
      (fun p (key, g, c) ->
        let j = key / size and i = key mod size in
        colptr.(j + 1) <- colptr.(j + 1) + 1;
        rowidx.(p) <- i;
        gvals.(p) <- g;
        cvals.(p) <- c)
      entries;
    for j = 0 to size - 1 do
      colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
    done;
    (* One symbolic analysis per block plan. The reference frequency
       only seeds the pivot order; [omega_ref] defaults to 1 MHz,
       mid-band for the tool's decade sweeps. *)
    let values =
      Array.init n (fun p -> Cx.make gvals.(p) (s.omega_ref *. cvals.(p)))
    in
    let a = Scmat.of_csc ~rows:size ~cols:size ~colptr ~rowidx values in
    let sym, _ = Scmat.analyze a in
    Obs.Counter.incr n_symbolic;
    { size; colptr; rowidx; gvals; cvals; sym }
  in
  let plans = Array.mapi (fun b -> Option.map (plan_of b)) tbls in
  Array.iteri (fun b p -> if Option.is_some p then Atomic.set s.cells.(b) p)
    plans;
  let made = List.filter_map Fun.id (Array.to_list plans) in
  let total f = List.fold_left (fun acc p -> acc + f p) 0 made in
  Obs.Span.leave "acplan.compile"
    ~args:
      [ ("unknowns", s.mna.Mna.size);
        ("blocks", List.length made);
        ("nnz", total nnz);
        ("fill", total (fun p -> Scmat.fill p.sym)) ]
    t_compile

let need s wanted =
  let tbls = Array.make (count s) None in
  List.iter
    (fun b ->
      if Option.is_none (Atomic.get s.cells.(b)) && Option.is_none tbls.(b)
      then tbls.(b) <- Some (Hashtbl.create (4 * Blocks.size s.blocks b)))
    wanted;
  if Array.exists Option.is_some tbls then compile_into s tbls

let rec get s b =
  match Atomic.get s.cells.(b) with
  | Some p -> p
  | None ->
    need s [ b ];
    get s b

let compile_blocks ?gmin ?omega_ref ~op ~blocks mna =
  let s = on_demand ?gmin ?omega_ref ~op ~blocks mna in
  need s (List.init (count s) Fun.id);
  Array.init (count s) (get s)

let compile ?gmin ?omega_ref ~op mna =
  (compile_blocks ?gmin ?omega_ref ~op ~blocks:(Blocks.whole mna.Mna.size)
     mna).(0)

let matrix_at t ~omega =
  let values =
    Array.init (nnz t) (fun p ->
        Cx.make t.gvals.(p) (omega *. t.cvals.(p)))
  in
  Scmat.of_csc ~rows:t.size ~cols:t.size ~colptr:t.colptr
    ~rowidx:t.rowidx values

let factor_of t a =
  let f =
    try Scmat.refactor ~pivot_tol t.sym a
    with Sparse.Singular _ ->
      (* Frozen pivots inadequate at this frequency: re-pivot here. The
         fresh analysis is used for this point only — the shared plan
         stays immutable so Domain-parallel sweeps need no locking. *)
      Obs.Counter.incr n_fallback;
      Obs.Counter.incr n_symbolic;
      snd (Scmat.analyze a)
  in
  Obs.Counter.incr n_numeric;
  f

let mag_inf v =
  Array.fold_left (fun acc z -> Float.max acc (Cx.mag z)) 0. v

(* The one sampled-health recording for a sparse factor [f] of [a]:
   rcond estimate, pivot growth, and the scaled residual of [x]
   against [b]. The plan's solves, sampled kernel points and the
   kernel's fallback factorisations all record through here. *)
let record_health ?meter a f ~x ~b =
  let rcond = Cond.rcond (Cond.sparse a f) in
  let growth = Scmat.pivot_growth a f in
  let residual =
    Health.relative_residual ~norm1:(Scmat.norm1 a)
      ~residual_inf:(Scmat.residual_inf a x b)
      ~x_inf:(mag_inf x) ~b_inf:(mag_inf b)
  in
  Health.record ?meter ~rcond ~growth ~residual ()

let solve_many ?health t ~omega bs =
  let a = matrix_at t ~omega in
  let f = factor_of t a in
  Obs.Counter.add n_rhs (Array.length bs);
  Obs.Counter.record_max rhs_batch_max (Array.length bs);
  let xs = Scmat.lu_solve_many f bs in
  if Array.length bs > 0 && Health.tick () then
    record_health ?meter:health a f ~x:xs.(0) ~b:bs.(0);
  xs

let solve ?health t ~omega b = (solve_many ?health t ~omega [| b |]).(0)

(* ---- kernel-compiler exports ---- *)

(* The shared skeleton and frozen analysis, handed out uncopied so
   Engine.Kernel can flatten them without doubling the plan's footprint.
   Callers must treat every array as read-only: plans are shared across
   Domain-parallel sweep workers precisely because they are immutable. *)
let skeleton t = (t.colptr, t.rowidx, t.gvals, t.cvals)
let symbolic t = t.sym

(* Out-of-band health probe for compiled kernels: the kernel's hot loop
   keeps no Scmat factor around, so sampled points rebuild one here to
   price rcond/growth/residual. No counters move — this is telemetry,
   not part of the factorisation budget the tests assert. *)
let point_health ?meter t ~omega ~x ~b =
  let a = matrix_at t ~omega in
  let f =
    try Scmat.refactor ~pivot_tol t.sym a
    with Sparse.Singular _ -> snd (Scmat.analyze a)
  in
  record_health ?meter a f ~x ~b
