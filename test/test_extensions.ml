(* Extension features: sensitivity ranking, DC sweeps, Monte Carlo, the
   NMC multi-loop workload. *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

(* ---------- sensitivity ---------- *)

let test_sensitivity_rlc () =
  (* Parallel RLC: zeta = sqrt(L/C)/(2R), fn = 1/(2 pi sqrt(LC)), so the
     normalised sensitivities are known exactly:
       S_R(zeta) = -1, S_L(zeta) = +1/2, S_C(zeta) = -1/2
       S_R(fn) = 0, S_L(fn) = -1/2, S_C(fn) = -1/2. *)
  let circ = Workloads.Filters.parallel_rlc () in
  let entries = Stability.Sensitivity.of_loop circ ~node:"n" in
  let find name =
    List.find
      (fun (e : Stability.Sensitivity.entry) -> e.device = name)
      entries
  in
  let r = find "R1" and l = find "L1" and c = find "C1" in
  check_close ~tol:2e-2 "S_R(zeta)" (-1.) r.zeta_sensitivity;
  check_close ~tol:2e-2 "S_L(zeta)" 0.5 l.zeta_sensitivity;
  check_close ~tol:2e-2 "S_C(zeta)" (-0.5) c.zeta_sensitivity;
  check_close ~tol:2e-2 "S_R(fn)" 0. r.freq_sensitivity;
  check_close ~tol:2e-2 "S_L(fn)" (-0.5) l.freq_sensitivity;
  check_close ~tol:2e-2 "S_C(fn)" (-0.5) c.freq_sensitivity;
  (* Ranking: R has the largest damping influence. *)
  match entries with
  | first :: _ -> Alcotest.(check string) "R ranks first" "R1" first.device
  | [] -> Alcotest.fail "no entries"

let test_sensitivity_opamp_names_compensation () =
  (* On the op-amp's main loop, the compensation network and the load cap
     must rank among the most influential passives. *)
  let circ = Workloads.Opamp_2mhz.buffer () in
  let entries =
    Stability.Sensitivity.of_loop
      ~options:
        { Stability.Analysis.default_options with
          sweep = Numerics.Sweep.decade 1e5 1e8 30 }
      circ ~node:"out"
  in
  let top3 =
    List.filteri (fun i _ -> i < 3) entries
    |> List.map (fun (e : Stability.Sensitivity.entry) -> e.device)
  in
  Alcotest.(check bool)
    (Printf.sprintf "compensation parts in top 3 (%s)"
       (String.concat "," top3))
    true
    (List.exists (fun d -> List.mem d [ "C1"; "CLOAD"; "RZERO" ]) top3)

(* ---------- dc sweep ---------- *)

let test_dcsweep_source () =
  (* Divider: out tracks in/2. *)
  let open Circuit.Netlist in
  let c = empty ~title:"sweep" () in
  let c = vsource c "V1" "in" "0" (dc_source 0.) in
  let c = resistor c "R1" "in" "out" 1e3 in
  let c = resistor c "R2" "out" "0" 1e3 in
  let values = [| 0.; 1.; 2.; 5. |] in
  let r = Engine.Dcsweep.source c ~name:"V1" ~values in
  let w = Engine.Dcsweep.v r "out" in
  Array.iteri
    (fun k vin ->
      check_close ~tol:1e-9
        (Printf.sprintf "out at vin=%g" vin)
        (vin /. 2.)
        w.Numerics.Waveform.Real.y.(k))
    values

let test_dcsweep_mos_transfer () =
  (* NMOS common-source transfer curve: output high in cutoff, low at
     strong gate drive, monotone between. *)
  let open Circuit.Netlist in
  let c = empty ~title:"cs sweep" () in
  let c = vsource c "VDD" "vdd" "0" (dc_source 5.) in
  let c = vsource c "VG" "g" "0" (dc_source 0.) in
  let c = resistor c "RD" "vdd" "d" 10e3 in
  let c =
    add_model c
      { model_name = "MN"; kind = Nmos;
        params = [ ("kp", 100e-6); ("vto", 1.) ] }
  in
  let c = mosfet ~w:50e-6 ~l:1e-6 c "M1" ~d:"d" ~g:"g" ~s:"0" ~b:"0" "MN" in
  let values = Numerics.Vec.linspace 0. 3. 31 in
  let r = Engine.Dcsweep.source c ~name:"VG" ~values in
  let w = Engine.Dcsweep.v r "d" in
  (* gmin leaks a few tens of nanovolts through RD. *)
  check_close ~tol:1e-6 "cutoff" 5. w.Numerics.Waveform.Real.y.(0);
  Alcotest.(check bool) "driven low" true
    (w.Numerics.Waveform.Real.y.(30) < 0.5);
  (* Monotone non-increasing. *)
  let mono = ref true in
  for k = 1 to 30 do
    if w.Numerics.Waveform.Real.y.(k)
       > w.Numerics.Waveform.Real.y.(k - 1) +. 1e-9
    then mono := false
  done;
  Alcotest.(check bool) "monotone" true !mono

let test_dcsweep_temperature_tracks_vbe () =
  let open Circuit.Netlist in
  let c = empty ~title:"vbe vs temp" () in
  let c = vsource c "VCC" "vcc" "0" (dc_source 5.) in
  let c = resistor c "R1" "vcc" "d" 100e3 in
  let c =
    add_model c
      { model_name = "DX"; kind = Dmodel; params = [ ("is", 1e-14) ] }
  in
  let c = diode c "D1" "d" "0" "DX" in
  let r =
    Engine.Dcsweep.temperature c ~values:[| 0.; 27.; 60.; 100. |]
  in
  let w = Engine.Dcsweep.v r "d" in
  (* Vbe falls with temperature, roughly -2 mV/K. *)
  let slope =
    (w.Numerics.Waveform.Real.y.(3) -. w.Numerics.Waveform.Real.y.(0)) /. 100.
  in
  Alcotest.(check bool)
    (Printf.sprintf "dVbe/dT = %.4g V/K" slope)
    true
    (slope < -1e-3 && slope > -3e-3)

(* ---------- monte carlo ---------- *)

let test_montecarlo_deterministic () =
  let circ = Workloads.Filters.parallel_rlc () in
  let a = Tool.Montecarlo.sample ~seed:7 Tool.Montecarlo.default_spec circ in
  let b = Tool.Montecarlo.sample ~seed:7 Tool.Montecarlo.default_spec circ in
  let value c name =
    match Circuit.Netlist.find_device c name with
    | Some (Circuit.Netlist.Resistor { r; _ }) -> r
    | _ -> Alcotest.fail "R1 missing"
  in
  check_close "same seed, same sample" (value a "R1") (value b "R1");
  let c2 = Tool.Montecarlo.sample ~seed:8 Tool.Montecarlo.default_spec circ in
  Alcotest.(check bool) "different seed differs" true
    (value a "R1" <> value c2 "R1")

let test_montecarlo_zeta_spread () =
  (* zeta of the RLC tank under 5 percent mismatch: the mean stays near
     nominal and the spread reflects the R/L/C sensitivities (~7 %). *)
  let circ = Workloads.Filters.parallel_rlc () in
  let _, zeta_nom = Workloads.Filters.parallel_rlc_theory () in
  let run =
    Tool.Montecarlo.run ~n:25 ~seed:1000 circ (fun c ->
        match
          (Stability.Analysis.single_node c "n").Stability.Analysis.dominant
        with
        | Some { Stability.Peaks.zeta = Some z; _ } -> z
        | _ -> failwith "no peak")
  in
  let st = Tool.Montecarlo.stats run in
  Alcotest.(check int) "no failures" 0 st.Tool.Montecarlo.failures;
  check_close ~tol:5e-2 "mean near nominal" zeta_nom st.Tool.Montecarlo.mean;
  Alcotest.(check bool)
    (Printf.sprintf "spread plausible (sigma %.4g)" st.Tool.Montecarlo.sigma)
    true
    (st.Tool.Montecarlo.sigma > 0.005 && st.Tool.Montecarlo.sigma < 0.05);
  let y = Tool.Montecarlo.yield run ~ok:(fun z -> z > 0.1) in
  Alcotest.(check bool) "yield sane" true (y > 0.8)

(* Pooled Monte-Carlo runs each sample on whichever participant claims
   it, so every outcome must depend on its seed alone: sequential and
   pooled runs from seed 7 return the same samples bit for bit, with
   real worker domains forced even on a single-core host. *)
let test_montecarlo_seq_par () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e4 1e8 10;
      refine = false }
  in
  let analyse c =
    match
      (Stability.Analysis.single_node ~options c Workloads.Opamp_2mhz.node_out)
        .Stability.Analysis.dominant
    with
    | Some d -> Option.value ~default:1. d.Stability.Peaks.zeta
    | None -> 1.
  in
  let run parallel = Tool.Montecarlo.run ~parallel ~n:4 ~seed:7 circ analyse in
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs 3;
  let seq, par =
    Fun.protect
      ~finally:(fun () ->
        Parallel.Pool.set_jobs saved;
        Parallel.Pool.set_oversubscribe false;
        Parallel.Pool.shutdown ())
      (fun () ->
        let seq = run `Seq in
        let par = run `Par in
        (seq, par))
  in
  Alcotest.(check int) "four samples" 4
    (List.length seq.Tool.Montecarlo.samples);
  List.iter2
    (fun (s1, r1) (s2, r2) ->
      Alcotest.(check int) "same seed order" s1 s2;
      match (r1, r2) with
      | Ok a, Ok b ->
        Alcotest.(check int64)
          (Printf.sprintf "sample %d zeta bits" s1)
          (Int64.bits_of_float a) (Int64.bits_of_float b)
      | Error _, Error _ -> ()
      | _ -> Alcotest.failf "sample %d failed on one path only" s1)
    seq.Tool.Montecarlo.samples par.Tool.Montecarlo.samples

let test_montecarlo_model_sigma () =
  let spec =
    { Tool.Montecarlo.passive_sigma = 0.;
      model_sigma = [ ("MN", "vto", 0.1) ] }
  in
  let circ = Workloads.Follower.source_follower () in
  let s = Tool.Montecarlo.sample ~seed:3 spec circ in
  match Circuit.Netlist.find_model s "MN" with
  | Some m ->
    let vto = Circuit.Netlist.model_param m "vto" ~default:0. in
    Alcotest.(check bool)
      (Printf.sprintf "vto perturbed (%.4g)" vto)
      true
      (vto <> 0.8 && Float.abs (vto -. 0.8) < 0.4)
  | None -> Alcotest.fail "model missing"

(* ---------- NMC amplifier ---------- *)

let test_nmc_butterworth () =
  let p = Workloads.Nmc_amp.default_params in
  let circ = Workloads.Nmc_amp.buffer ~params:p () in
  let ac = Engine.Ac.run ~sweep:(Numerics.Sweep.List [| 100. |]) circ in
  check_close ~tol:1e-3 "unity buffer" 1.
    (Numerics.Cx.mag (Engine.Ac.v ac "out").Engine.Waveform.Freq.h.(0));
  match
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
  with
  | Some d ->
    (* Butterworth-ish: moderately damped single dominant pair. *)
    Alcotest.(check bool)
      (Printf.sprintf "zeta %.2f in [0.3, 0.6]"
         (Option.get d.Stability.Peaks.zeta))
      true
      (match d.Stability.Peaks.zeta with
       | Some z -> z > 0.3 && z < 0.6
       | None -> false)
  | None -> Alcotest.fail "no dominant pair"

let test_nmc_inner_loop_detected () =
  (* Shrinking cm2 under-damps the inner loop: the dominant pair moves up
     in frequency and down in damping — and the exact poles agree. *)
  let p = Workloads.Nmc_amp.default_params in
  let bad = { p with Workloads.Nmc_amp.cm2 = p.Workloads.Nmc_amp.cm2 /. 5. } in
  let circ = Workloads.Nmc_amp.buffer ~params:bad () in
  let d =
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
    |> Option.get
  in
  Alcotest.(check bool) "underdamped" true
    (d.Stability.Peaks.value < -15.);
  Alcotest.(check bool) "well above the GBW" true
    (d.Stability.Peaks.freq > 2. *. Workloads.Nmc_amp.gbw_hz bad);
  let pairs =
    Engine.Poles.complex_pairs (Engine.Poles.of_circuit circ)
  in
  let nearest =
    List.fold_left
      (fun best (q : Engine.Poles.pole) ->
        match best with
        | None -> Some q
        | Some b ->
          if
            Float.abs (log (q.Engine.Poles.freq_hz /. d.Stability.Peaks.freq))
            < Float.abs (log (b.Engine.Poles.freq_hz /. d.Stability.Peaks.freq))
          then Some q
          else best)
      None pairs
    |> Option.get
  in
  check_close ~tol:2e-2 "plot matches exact pole (fn)"
    nearest.Engine.Poles.freq_hz d.Stability.Peaks.freq;
  check_close ~tol:5e-2 "plot matches exact pole (zeta)"
    nearest.Engine.Poles.zeta
    (Option.get d.Stability.Peaks.zeta)

let test_nmc_outer_loop_margins () =
  (* The explicit feedback wire allows a loop-gain baseline cross-check. *)
  let circ = Workloads.Nmc_amp.buffer () in
  let lg =
    Engine.Loopgain.middlebrook ~sweep:(Numerics.Sweep.decade 1e2 1e9 40)
      circ ~device:"G1" ~terminal:2
  in
  match (Engine.Loopgain.margins lg).Engine.Measure.phase_margin_deg with
  | Some pm ->
    Alcotest.(check bool)
      (Printf.sprintf "healthy Butterworth PM (%.0f)" pm)
      true (pm > 40. && pm < 75.)
  | None -> Alcotest.fail "no crossover"

let () =
  Alcotest.run "extensions"
    [ ("sensitivity",
       [ Alcotest.test_case "rlc closed forms" `Quick test_sensitivity_rlc;
         Alcotest.test_case "op-amp compensation ranking" `Slow
           test_sensitivity_opamp_names_compensation ]);
      ("dcsweep",
       [ Alcotest.test_case "source sweep" `Quick test_dcsweep_source;
         Alcotest.test_case "mos transfer curve" `Quick
           test_dcsweep_mos_transfer;
         Alcotest.test_case "temperature sweep" `Quick
           test_dcsweep_temperature_tracks_vbe ]);
      ("montecarlo",
       [ Alcotest.test_case "deterministic seeding" `Quick
           test_montecarlo_deterministic;
         Alcotest.test_case "zeta spread" `Slow test_montecarlo_zeta_spread;
         Alcotest.test_case "seq = par samples" `Quick
           test_montecarlo_seq_par;
         Alcotest.test_case "model sigma" `Quick
           test_montecarlo_model_sigma ]);
      ("nmc",
       [ Alcotest.test_case "butterworth buffer" `Quick
           test_nmc_butterworth;
         Alcotest.test_case "inner loop detected" `Quick
           test_nmc_inner_loop_detected;
         Alcotest.test_case "outer margins" `Quick
           test_nmc_outer_loop_margins ]) ]
