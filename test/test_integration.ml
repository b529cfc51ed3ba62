(* End-to-end integration: the paper's complete experiment flow on the
   full op-amp + bias system, through every layer at once (parser, engine,
   stability tool, reports, OCEAN). *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The full system survives a netlist round-trip: print the built op-amp
   as SPICE text, re-parse it, and get the same operating point and the
   same stability verdict. *)
let test_netlist_roundtrip_full_system () =
  let built = Workloads.Opamp_2mhz.buffer () in
  let text = Circuit.Netlist.to_spice built in
  let parsed = Circuit.Parser.parse_string text in
  let op_b = Engine.Dcop.solve (Engine.Mna.compile built) in
  let op_p = Engine.Dcop.solve (Engine.Mna.compile parsed) in
  List.iter
    (fun n ->
      check_close ~tol:2e-3
        (Printf.sprintf "V(%s) preserved" n)
        (Engine.Dcop.node_v op_b n)
        (Engine.Dcop.node_v op_p n))
    [ "out"; "o1"; "d1"; "nbias"; "vcasc" ];
  let r = Stability.Analysis.single_node parsed "out" in
  match r.Stability.Analysis.dominant with
  | Some d ->
    Alcotest.(check bool) "stability verdict preserved" true
      (d.Stability.Peaks.value < -25. && d.Stability.Peaks.value > -40.)
  | None -> Alcotest.fail "pole lost in round-trip"

(* Table 2 shape: the all-nodes report groups the main loop's nodes at one
   natural frequency and finds the bias cell's local loop above it. *)
let test_table2_shape () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let results = Stability.Analysis.all_nodes circ in
  let loops = Stability.Loops.cluster results in
  (* Main loop: the deepest loop overall, at ~3 MHz, with at least the
     three core nodes out/o1/d1. *)
  let main =
    List.fold_left
      (fun acc (l : Stability.Loops.loop) ->
        match acc with
        | None -> Some l
        | Some best ->
          if l.worst.peak.Stability.Peaks.value
             < best.Stability.Loops.worst.peak.Stability.Peaks.value
          then Some l
          else acc)
      None loops
    |> Option.get
  in
  Alcotest.(check bool) "main loop near 3 MHz" true
    (main.Stability.Loops.natural_freq > 2.5e6
     && main.Stability.Loops.natural_freq < 4e6);
  let member_nodes =
    List.map
      (fun (m : Stability.Loops.member) -> m.Stability.Loops.node)
      main.Stability.Loops.members
  in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s in main loop" n)
        true
        (List.mem n member_nodes))
    [ "out"; "o1"; "d1" ];
  (* Local loop: a distinct loop above the main loop containing the bias
     line, with a genuine complex pair. *)
  let local =
    List.find_opt
      (fun (l : Stability.Loops.loop) ->
        List.exists
          (fun (m : Stability.Loops.member) ->
            m.Stability.Loops.node = Workloads.Bias_zero_tc.node_bias_line)
          l.Stability.Loops.members)
      loops
    |> Option.get
  in
  Alcotest.(check bool) "local loop above the main loop" true
    (local.Stability.Loops.natural_freq
     > 3. *. main.Stability.Loops.natural_freq);
  Alcotest.(check bool) "local loop underdamped" true
    (local.Stability.Loops.worst.peak.Stability.Peaks.value < -2.)

(* The estimation chain closes: plot peak -> zeta -> predicted overshoot
   matches the measured transient within the slewing tolerance, and
   -> predicted PM matches the measured open-loop PM tightly. *)
let test_estimation_chain_closes () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let d =
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
    |> Option.get
  in
  let zeta = Option.get d.Stability.Peaks.zeta in
  let dev, term = Workloads.Opamp_2mhz.feedback_break in
  let lg =
    Engine.Loopgain.middlebrook ~sweep:(Numerics.Sweep.decade 1e4 1e8 80)
      circ ~device:dev ~terminal:term
  in
  let pm =
    Option.get (Engine.Loopgain.margins lg).Engine.Measure.phase_margin_deg
  in
  check_close ~tol:0.08 "PM chain"
    (Control.Second_order.phase_margin_exact zeta)
    pm;
  let tr = Engine.Transient.run ~tstop:8e-6 ~tstep:2e-9 circ in
  let m =
    Engine.Measure.step_metrics ~initial:2.5 ~final:2.55
      (Engine.Transient.v tr "out")
  in
  let predicted = Control.Second_order.percent_overshoot zeta in
  Alcotest.(check bool)
    (Printf.sprintf "overshoot %.0f%% within 15 points of predicted %.0f%%"
       m.Engine.Measure.overshoot_pct predicted)
    true
    (Float.abs (m.Engine.Measure.overshoot_pct -. predicted) < 15.)

(* The whole flow through OCEAN + .stab directive cards, as a user script
   would drive it. *)
let test_ocean_end_to_end () =
  let s = Tool.Ocean.simulator "spectre" in
  Tool.Ocean.design s
    (Circuit.Netlist.add_directive (Workloads.Opamp_2mhz.buffer ())
       Circuit.Netlist.Stab_all);
  let r = Tool.Ocean.run s in
  let report = Tool.Ocean.stab_report r in
  Alcotest.(check bool) "report has the main loop" true
    (contains report "Loop at 3");
  let annotated = Tool.Ocean.stab_annotated r in
  Alcotest.(check bool) "annotation mentions out" true
    (contains annotated "out: peak")

(* Compensating the main loop moves every consistency metric together. *)
let test_fix_improves_everything () =
  let fixed =
    { Workloads.Opamp_2mhz.default_params with
      c1 = 15e-12; rzero = 2e3; cload = 47e-12 }
  in
  let circ = Workloads.Opamp_2mhz.buffer ~params:fixed () in
  let d =
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
    |> Option.get
  in
  Alcotest.(check bool) "peak shallower than -10" true
    (d.Stability.Peaks.value > -10.);
  let dev, term = Workloads.Opamp_2mhz.feedback_break in
  let lg =
    Engine.Loopgain.middlebrook ~sweep:(Numerics.Sweep.decade 1e4 1e9 60)
      circ ~device:dev ~terminal:term
  in
  let pm =
    Option.get (Engine.Loopgain.margins lg).Engine.Measure.phase_margin_deg
  in
  Alcotest.(check bool) (Printf.sprintf "PM %.0f > 45" pm) true (pm > 45.)

(* Exact eigenvalue analysis of the full system agrees with the
   stability-plot estimates — the strongest cross-validation available:
   the plot is a per-node numerical probe, the poles are ground truth. *)
let test_poles_vs_stability_plot () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let poles = Engine.Poles.of_circuit circ in
  Alcotest.(check bool) "closed loop is stable" true
    (Engine.Poles.is_stable poles);
  let pairs = Engine.Poles.complex_pairs poles in
  (* Main loop. *)
  let main =
    List.find
      (fun (p : Engine.Poles.pole) ->
        p.Engine.Poles.freq_hz > 1e6 && p.Engine.Poles.freq_hz < 10e6)
      pairs
  in
  let d =
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
    |> Option.get
  in
  check_close ~tol:2e-2 "main-loop fn: plot vs eigenvalues"
    main.Engine.Poles.freq_hz d.Stability.Peaks.freq;
  check_close ~tol:5e-2 "main-loop zeta: plot vs eigenvalues"
    main.Engine.Poles.zeta
    (Option.get d.Stability.Peaks.zeta);
  (* Bias local loop. *)
  let local =
    List.find
      (fun (p : Engine.Poles.pole) ->
        p.Engine.Poles.freq_hz > 15e6 && p.Engine.Poles.freq_hz < 80e6)
      pairs
  in
  let dl =
    (Stability.Analysis.single_node circ
       Workloads.Bias_zero_tc.node_bias_line)
      .Stability.Analysis.dominant
    |> Option.get
  in
  check_close ~tol:5e-2 "local-loop fn: plot vs eigenvalues"
    local.Engine.Poles.freq_hz dl.Stability.Peaks.freq;
  check_close ~tol:8e-2 "local-loop zeta: plot vs eigenvalues"
    local.Engine.Poles.zeta
    (Option.get dl.Stability.Peaks.zeta)

(* All-nodes via the job queue in parallel equals the sequential scan. *)
let test_parallel_scan_consistency () =
  let circ = Workloads.Bias_zero_tc.cell () in
  let seq = Stability.Analysis.all_nodes circ in
  let nodes =
    List.map (fun (r : Stability.Analysis.node_result) -> r.node) seq
  in
  let jobs =
    List.map
      (fun n ->
        ( n,
          fun () ->
            (Stability.Analysis.single_node circ n)
              .Stability.Analysis.dominant ))
      nodes
  in
  let par =
    Tool.Job.run_all ~parallel:`Par jobs
    |> List.map (fun (_, r) -> Result.get_ok r)
  in
  List.iter2
    (fun (r : Stability.Analysis.node_result) p ->
      match (r.dominant, p) with
      | Some a, Some b ->
        check_close ~tol:5e-2
          (Printf.sprintf "%s peak agrees" r.node)
          a.Stability.Peaks.value b.Stability.Peaks.value
      | None, None -> ()
      | _ -> Alcotest.failf "presence mismatch on %s" r.node)
    seq par

(* A hierarchical board: four behavioural buffer channels instantiated
   through .subckt, each with its own compensation — exercising flattening
   at scale and the shared-factorisation all-nodes scan on a larger node
   set. Channel 3 is deliberately under-compensated; the scan must single
   it out. *)
let quad_board = {|quad buffer board
.subckt chan in out av=100 cl=68p
EAMP x1 0 in out {av}
R1 x1 x2 1k
C1 x2 0 100n
EBUF x2b 0 x2 0 1
R2 x2b x3 10k
C2 x3 0 {cl}
RFB x3 out 1m
RL out 0 1meg
.ends
V1 a1 0 DC 0 AC 1
X1 a1 o1 chan cl=68p
V2 a2 0 DC 0
X2 a2 o2 chan cl=68p
V3 a3 0 DC 0
X3 a3 o3 chan cl=1n
V4 a4 0 DC 0
X4 a4 o4 chan cl=68p
.end
|}

let test_quad_board_scan () =
  let circ = Circuit.Parser.parse_string quad_board in
  (* 4 channels x 8 devices + 4 drive sources. *)
  Alcotest.(check int) "36 flattened devices" 36
    (List.length (Circuit.Netlist.devices circ));
  let results = Stability.Analysis.all_nodes circ in
  let dominant_of node =
    List.find_map
      (fun (r : Stability.Analysis.node_result) ->
        if r.node = node then r.dominant else None)
      results
  in
  (* The sick channel rings hard; the healthy ones are mildly peaked. *)
  let sick = Option.get (dominant_of "o3") in
  Alcotest.(check bool)
    (Printf.sprintf "channel 3 flagged (%.1f)" sick.Stability.Peaks.value)
    true
    (sick.Stability.Peaks.value < -20.);
  List.iter
    (fun n ->
      match dominant_of n with
      | Some d ->
        Alcotest.(check bool)
          (Printf.sprintf "%s healthy (%.1f)" n d.Stability.Peaks.value)
          true
          (d.Stability.Peaks.value > -8.)
      | None -> ())
    [ "o1"; "o2"; "o4" ];
  (* Identical healthy channels must measure identically. *)
  let p1 = Option.get (dominant_of "o1") in
  let p4 = Option.get (dominant_of "o4") in
  check_close ~tol:1e-6 "replicated channels agree"
    p1.Stability.Peaks.value p4.Stability.Peaks.value

let () =
  Alcotest.run "integration"
    [ ("full-system",
       [ Alcotest.test_case "netlist round-trip" `Slow
           test_netlist_roundtrip_full_system;
         Alcotest.test_case "table 2 shape" `Slow test_table2_shape;
         Alcotest.test_case "estimation chain closes" `Slow
           test_estimation_chain_closes;
         Alcotest.test_case "ocean end-to-end" `Slow test_ocean_end_to_end;
         Alcotest.test_case "fix improves everything" `Slow
           test_fix_improves_everything;
         Alcotest.test_case "parallel scan consistency" `Slow
           test_parallel_scan_consistency;
         Alcotest.test_case "poles vs stability plot" `Slow
           test_poles_vs_stability_plot;
         Alcotest.test_case "hierarchical quad board" `Slow
           test_quad_board_scan ]) ]
