open Numerics

type result = {
  mna : Mna.t;
  op : Dcop.t;
  freqs : float array;
  solutions : Complex.t array array;
}

let phasor (spec : Circuit.Netlist.source_spec) =
  if spec.ac_mag = 0. then Cx.zero
  else Cx.polar spec.ac_mag (spec.ac_phase_deg *. Float.pi /. 180.)

(* The dense system A(w) = G + jwC of diagonal block [b]: each pencil
   stamp inside the block adds g + j(w c) in the pencil's order (source
   phasors go to the RHS separately: probing analyses reuse the same
   matrix with their own excitation). Building it from the plan's summed
   G and C instead would change bits: w * (sum c) is not sum (w * c) in
   floating point. *)
let block_matrix_at blocks b mna prims ~gmin ~omega =
  let n = Blocks.size blocks b in
  let a = Cmat.create n n in
  Blocks.pencil blocks mna prims ~gmin (fun b' i j g c ->
      if b' = b then Cmat.add_to a i j (Cx.make g (omega *. c)));
  a

let matrix_at mna prims ~gmin ~omega =
  block_matrix_at (Blocks.whole mna.Mna.size) 0 mna prims ~gmin ~omega

(* Independent-source excitation vector. *)
let source_rhs mna b =
  Array.iter
    (fun (_, e) ->
      match e with
      | Mna.E_vsrc { br; spec; _ } -> Mna.stamp_rhs_c b br (phasor spec)
      | Mna.E_isrc { i; j; spec } ->
        let p = phasor spec in
        Mna.stamp_rhs_c b i (Cx.neg p);
        Mna.stamp_rhs_c b j p
      | _ -> ())
    mna.Mna.elems

let factor_at ?(gmin = 1e-12) ~op ~omega mna =
  Cmat.lu_factor (matrix_at mna (Linearize.of_op op) ~gmin ~omega)

(* Sampled health for the dense per-point path; mirrors
   [Ac_plan.record_health] so node grades do not depend on the backend
   chosen. *)
let dense_health ?meter a f ~x ~b =
  let rcond = Cond.rcond (Cond.dense a f) in
  let growth = Cmat.pivot_growth a f in
  let residual =
    Health.relative_residual ~norm1:(Cmat.norm1 a)
      ~residual_inf:(Cmat.residual_inf a x b) ~x_inf:(Ac_plan.mag_inf x)
      ~b_inf:(Ac_plan.mag_inf b)
  in
  Health.record ?meter ~rcond ~growth ~residual ()

let run_compiled ?op ?(gmin = 1e-12) ?backend ~sweep mna =
  let op = match op with Some op -> op | None -> Dcop.solve mna in
  let freqs = Sweep.points sweep in
  let backend =
    match backend with
    | Some b -> b
    | None ->
      if mna.Mna.size <= Ac_plan.dense_cutoff then `Dense else `Plan
  in
  (* The independent-source excitation carries no frequency dependence
     (AC magnitudes and phases only), so one RHS serves the sweep. *)
  let b0 = Array.make mna.Mna.size Cx.zero in
  source_rhs mna b0;
  let solutions =
    match backend with
    | `Dense ->
      let prims = Linearize.of_op op in
      Array.map
        (fun f ->
          let a = matrix_at mna prims ~gmin ~omega:(2. *. Float.pi *. f) in
          let lu = Cmat.lu_factor a in
          let x = Cmat.lu_solve lu b0 in
          if Health.tick () then dense_health a lu ~x ~b:b0;
          x)
        freqs
    | (`Plan | `Kernel) as b ->
      let plan =
        Ac_plan.compile ~gmin ~omega_ref:(Ac_plan.omega_ref freqs) ~op mna
      in
      (match b with
       | `Plan ->
         Array.map
           (fun f -> Ac_plan.solve plan ~omega:(2. *. Float.pi *. f) b0)
           freqs
       | `Kernel ->
         (* Flattened program over the same plan; values bit-identical
            to [`Plan]. *)
         let kern = Kernel.compile plan in
         Array.map
           (fun f ->
             (Kernel.solve_many kern ~omega:(2. *. Float.pi *. f)
                [| b0 |]).(0))
           freqs)
  in
  { mna; op; freqs; solutions }

let run ?dc_options ?gmin ?backend ~sweep circ =
  let mna = Mna.compile circ in
  let op = Dcop.solve ?options:dc_options mna in
  run_compiled ~op ?gmin ?backend ~sweep mna

let unknown_wave r idx =
  Waveform.Freq.make r.freqs (Array.map (fun sol -> sol.(idx)) r.solutions)

let v r n =
  let i =
    try Mna.node_index r.mna n
    with Mna.Compile_error _ ->
      invalid_arg (Printf.sprintf "Ac.v: unknown net %S" n)
  in
  if i < 0 then
    (* Ground: identically zero by definition — matches
       Probe.response_many's rejection rather than fabricating a silent
       all-zero waveform for a net the caller may have simply
       misspelled. *)
    invalid_arg (Printf.sprintf "Ac.v: cannot read the ground net %S" n)
  else unknown_wave r i

let vdiff r np nm =
  let wp = v r np and wm = v r nm in
  Waveform.Freq.make r.freqs
    (Array.mapi (fun k z -> Complex.sub z wm.Waveform.Freq.h.(k))
       wp.Waveform.Freq.h)

let branch_i r name = unknown_wave r (Mna.branch_index r.mna name)
