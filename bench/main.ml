(* Reproduction harness + timing benchmarks for every table and figure of
   Milev & Burt, "A Tool and Methodology for AC-Stability Analysis of
   Continuous-Time Closed-Loop Systems" (DATE 2005).

   Running this executable regenerates, in order:
     Table 1   second-order characteristics (exact closed forms)
     Fig 1     the 2 MHz op-amp netlist
     Fig 2     its step response and overshoot
     Fig 3     the open-loop gain/phase margins (traditional baseline)
     Fig 4     the stability plot at the output node
     Table 2   the all-nodes report, grouped by loop
     Fig 5     the bias cell, before/after the paper's 1 pF fix
     S1.2      the "-43.1 at 10.471 MHz" example plot
   then the design ablations, a paper-vs-measured summary and Bechamel
   timings of each kernel. The process exits 1 when a paper check fails.
   Speed claims live in perfbench/, not here. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fmt = Numerics.Engnum.format

(* Collected paper-vs-measured rows for the final summary. *)
let summary : (string * string * string * bool) list ref = ref []

let record ~experiment ~paper ~measured ok =
  summary := (experiment, paper, measured, ok) :: !summary

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

let run_table1 () =
  section "Table 1 -- key performance characteristics of a second-order system";
  let rows = Control.Second_order.table1 () in
  Control.Second_order.pp_table1 Format.std_formatter rows;
  (* Spot-check the paper's anchor row zeta = 0.2. *)
  let r = List.find (fun r -> r.Control.Second_order.zeta = 0.2) rows in
  let os = Option.get r.Control.Second_order.overshoot_pct in
  let ok =
    Float.abs (os -. 53.) <= 1.
    && Float.abs (r.Control.Second_order.perf_index +. 25.) <= 0.1
  in
  record ~experiment:"Table 1 (zeta=0.2 row)"
    ~paper:"os 53%, PM 20, index -25"
    ~measured:(Printf.sprintf "os %.0f%%, PM %.0f, index %.1f" os
                 (Option.get r.Control.Second_order.phase_margin_deg)
                 r.Control.Second_order.perf_index)
    ok;
  rows

(* ------------------------------------------------------------------ *)
(* Fig 1: the circuit                                                   *)

let run_fig1 () =
  section "Fig 1 -- simple 2 MHz op-amp circuit (connected as a buffer)";
  let circ = Workloads.Opamp_2mhz.buffer () in
  print_string (Circuit.Netlist.to_spice circ);
  let issues = Circuit.Topology.check circ in
  Printf.printf "* structural checks: %s\n"
    (if issues = [] then "clean" else "ISSUES FOUND");
  record ~experiment:"Fig 1 (netlist)" ~paper:"2 MHz op-amp, buffer"
    ~measured:
      (Printf.sprintf "%d devices, checks %s"
         (List.length (Circuit.Netlist.devices circ))
         (if issues = [] then "clean" else "dirty"))
    (issues = []);
  circ

(* ------------------------------------------------------------------ *)
(* Fig 2: step response                                                 *)

let run_fig2 circ =
  section "Fig 2 -- transient step response of the buffer";
  let p = Workloads.Opamp_2mhz.default_params in
  let tr = Engine.Transient.run ~tstop:8e-6 ~tstep:2e-9 circ in
  let w = Engine.Transient.v tr Workloads.Opamp_2mhz.node_out in
  (* Print a readable subsampling of the ringing. *)
  Printf.printf "%12s %12s\n" "t [us]" "v(out) [V]";
  let n = Array.length w.Engine.Waveform.Real.x in
  let step = Int.max 1 (n / 40) in
  let k = ref 0 in
  while !k < n do
    Printf.printf "%12.3f %12.5f\n"
      (w.Engine.Waveform.Real.x.(!k) *. 1e6)
      w.Engine.Waveform.Real.y.(!k);
    k := !k + step
  done;
  let m =
    Engine.Measure.step_metrics ~initial:p.Workloads.Opamp_2mhz.vcm
      ~final:(p.Workloads.Opamp_2mhz.vcm +. p.Workloads.Opamp_2mhz.step) w
  in
  Printf.printf "\nmeasured overshoot: %.1f%% (peak %.4f V at %.3f us)\n"
    m.Engine.Measure.overshoot_pct m.Engine.Measure.peak
    (m.Engine.Measure.peak_time *. 1e6);
  record ~experiment:"Fig 2 (step overshoot)" ~paper:"~50-55 %"
    ~measured:(Printf.sprintf "%.0f %%" m.Engine.Measure.overshoot_pct)
    (m.Engine.Measure.overshoot_pct > 40.
     && m.Engine.Measure.overshoot_pct < 60.);
  m

(* ------------------------------------------------------------------ *)
(* Fig 3: open-loop gain/phase                                          *)

let run_fig3 circ =
  section "Fig 3 -- open-loop gain/phase plot (traditional baseline)";
  let dev, term = Workloads.Opamp_2mhz.feedback_break in
  let sweep = Numerics.Sweep.decade 1e3 1e9 20 in
  let lg = Engine.Loopgain.middlebrook ~sweep circ ~device:dev ~terminal:term in
  let t = lg.Engine.Loopgain.loop_gain in
  let db = Engine.Waveform.Freq.db t in
  let ph = Engine.Waveform.Freq.phase_deg t in
  Printf.printf "%14s %10s %12s\n" "freq [Hz]" "|T| [dB]" "phase [deg]";
  Array.iteri
    (fun k f ->
      if k mod 4 = 0 then
        Printf.printf "%14s %10.2f %12.2f\n" (fmt f) db.(k) ph.(k))
    t.Engine.Waveform.Freq.freqs;
  let m = Engine.Loopgain.margins lg in
  Format.printf "@.%a@." Engine.Measure.pp_margins m;
  let pm = Option.value ~default:Float.nan m.Engine.Measure.phase_margin_deg in
  let fu = Option.value ~default:Float.nan m.Engine.Measure.unity_freq in
  record ~experiment:"Fig 3 (phase margin)" ~paper:"~20 deg"
    ~measured:(Printf.sprintf "%.1f deg" pm)
    (pm > 17. && pm < 23.);
  record ~experiment:"Fig 3 (0 dB crossover)" ~paper:"2.4 MHz"
    ~measured:(Printf.sprintf "%sHz" (fmt fu))
    (fu > 2e6 && fu < 4e6);
  m

(* ------------------------------------------------------------------ *)
(* Fig 4: stability plot at the output                                  *)

let run_fig4 circ =
  section "Fig 4 -- stability plot at the output node";
  let node = Workloads.Opamp_2mhz.node_out in
  let probe = Stability.Probe.prepare circ in
  let r = Stability.Analysis.single_node_prepared probe node in
  let plot =
    match Stability.Analysis.coarse_plots probe [ node ] with
    | [ (_, p) ] -> p
    | _ -> failwith "Fig 4: the output shows no AC response"
  in
  Printf.printf "%14s %12s\n" "freq [Hz]" "P";
  Array.iteri
    (fun k f ->
      if k mod 8 = 0 then
        Printf.printf "%14s %12.3f\n" (fmt f)
          plot.Stability.Stability_plot.p.(k))
    plot.Stability.Stability_plot.freqs;
  print_string (Stability.Report.single_node_string r);
  (match r.Stability.Analysis.dominant with
   | Some d ->
     record ~experiment:"Fig 4 (peak value)" ~paper:"-28.9"
       ~measured:(Printf.sprintf "%.1f" d.Stability.Peaks.value)
       (d.Stability.Peaks.value < -25. && d.Stability.Peaks.value > -36.);
     record ~experiment:"Fig 4 (natural frequency)" ~paper:"3.16 MHz"
       ~measured:(Printf.sprintf "%sHz" (fmt d.Stability.Peaks.freq))
       (Float.abs ((d.Stability.Peaks.freq /. 3.16e6) -. 1.) < 0.15)
   | None ->
     record ~experiment:"Fig 4 (peak)" ~paper:"-28.9 at 3.16 MHz"
       ~measured:"no peak found" false);
  r

(* ------------------------------------------------------------------ *)
(* Table 2: all-nodes report                                            *)

let run_table2 circ =
  section "Table 2 -- stability peaks for all circuit nodes, by loop";
  let results = Stability.Analysis.all_nodes circ in
  Stability.Report.all_nodes Format.std_formatter results;
  let loops = Stability.Loops.cluster results in
  let main =
    List.filter
      (fun (l : Stability.Loops.loop) ->
        l.Stability.Loops.natural_freq > 2e6
        && l.Stability.Loops.natural_freq < 4.5e6)
      loops
  in
  let locals =
    List.filter
      (fun (l : Stability.Loops.loop) ->
        l.Stability.Loops.natural_freq > 10e6
        && l.Stability.Loops.worst.Stability.Loops.peak.Stability.Peaks.value
           < -1.)
      loops
  in
  record ~experiment:"Table 2 (main loop)" ~paper:"5 nodes at 3.16-3.31 MHz"
    ~measured:
      (match main with
       | [ l ] ->
         Printf.sprintf "%d nodes at %sHz"
           (List.length l.Stability.Loops.members)
           (fmt l.Stability.Loops.natural_freq)
       | _ -> Printf.sprintf "%d loops in band" (List.length main))
    (match main with
     | [ l ] -> List.length l.Stability.Loops.members >= 4
     | _ -> false);
  record ~experiment:"Table 2 (local loops)"
    ~paper:"bias loops at 36-51 MHz"
    ~measured:
      (String.concat ", "
         (List.map
            (fun (l : Stability.Loops.loop) ->
              Printf.sprintf "%sHz" (fmt l.Stability.Loops.natural_freq))
            locals))
    (List.exists
       (fun (l : Stability.Loops.loop) ->
         l.Stability.Loops.natural_freq > 15e6
         && l.Stability.Loops.natural_freq < 80e6)
       locals);
  results

(* ------------------------------------------------------------------ *)
(* Fig 5: bias cell before/after compensation                           *)

let run_fig5 () =
  section "Fig 5 -- zero-TC bias cell annotated; the 1 pF fix at Q3";
  let before = Workloads.Bias_zero_tc.cell () in
  let results = Stability.Analysis.all_nodes before in
  Stability.Annotate.netlist Format.std_formatter before results;
  let deepest rs =
    List.fold_left
      (fun acc (r : Stability.Analysis.node_result) ->
        match r.Stability.Analysis.dominant with
        | Some d -> Float.min acc d.Stability.Peaks.value
        | None -> acc)
      0. rs
  in
  let peak_before = deepest results in
  let fixed =
    Workloads.Bias_zero_tc.cell
      ~params:
        { Workloads.Bias_zero_tc.default_params with compensation = 1e-12 }
      ()
  in
  let results_after = Stability.Analysis.all_nodes fixed in
  let peak_after = deepest results_after in
  Printf.printf
    "\ndeepest local peak before the fix: %.2f; after 1 pF at %s: %.2f\n"
    peak_before Workloads.Bias_zero_tc.node_q3_collector peak_after;
  record ~experiment:"Fig 5 (local loop)"
    ~paper:"~50 MHz loop, PM < 50 deg"
    ~measured:(Printf.sprintf "peak %.1f before fix" peak_before)
    (peak_before < -2.);
  record ~experiment:"Fig 5 (1 pF fix)" ~paper:"loop compensated"
    ~measured:(Printf.sprintf "peak %.1f after fix" peak_after)
    (peak_after > peak_before +. 1.);
  results

(* ------------------------------------------------------------------ *)
(* Section 1.2 example: -43.1 at 10.471 MHz                             *)

let sec12_circuit () =
  (* An RLC tank with exactly the example's signature:
     P = -43.1 -> zeta = 0.1523; fn = 10.471 MHz. *)
  let zeta = Control.Second_order.zeta_of_performance_index (-43.1) in
  let fn = 10.471e6 in
  let c = 1e-9 in
  let l = 1. /. (c *. ((2. *. Float.pi *. fn) ** 2.)) in
  let r = sqrt (l /. c) /. (2. *. zeta) in
  Workloads.Filters.parallel_rlc ~r ~l ~c ()

let run_sec12 () =
  section "Section 1.2 example -- performance index -43.1 at 10.471 MHz";
  let circ = sec12_circuit () in
  let res = Stability.Analysis.single_node circ "n" in
  print_string (Stability.Report.single_node_string res);
  (match res.Stability.Analysis.dominant with
   | Some d ->
     record ~experiment:"S1.2 (example plot)" ~paper:"-43.1 at 10.471 MHz"
       ~measured:
         (Printf.sprintf "%.1f at %sHz" d.Stability.Peaks.value
            (fmt d.Stability.Peaks.freq))
       (Float.abs (d.Stability.Peaks.value +. 43.1) < 1.
        && Float.abs ((d.Stability.Peaks.freq /. 10.471e6) -. 1.) < 0.01)
   | None ->
     record ~experiment:"S1.2 (example plot)" ~paper:"-43.1 at 10.471 MHz"
       ~measured:"no peak" false);
  res

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)

(* Ablations 2-4 print exact work counts next to indicative times: the
   median wall clock of [repeats] calls after one warm-up call. Speed
   claims live in perfbench/, not here. *)
let median_time ?(repeats = 5) f =
  ignore (f ());
  let times =
    List.init repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  List.nth (List.sort compare times) (repeats / 2)

let timing_note () =
  print_endline "(times: median of 5 runs after a warm-up)"

(* Symbolic analyses and numeric factorisations of the compiled plan
   during one call: deltas of [Engine.Ac_plan.totals]. *)
let factorisations f =
  let a = Engine.Ac_plan.totals () in
  let r = f () in
  let b = Engine.Ac_plan.totals () in
  ( r,
    b.Engine.Ac_plan.symbolic - a.Engine.Ac_plan.symbolic,
    b.Engine.Ac_plan.numeric - a.Engine.Ac_plan.numeric )

let run_ablations () =
  section "Ablation 1 -- sweep density and zoom refinement (peak accuracy)";
  (* A sharp tank (zeta = 0.0158, true peak -4000): coarse grids bias the
     peak low; the zoom refinement recovers it from a 10-points-per-decade
     scan. *)
  let r = 1000. in
  let circ = Workloads.Filters.parallel_rlc ~r () in
  let _, zeta = Workloads.Filters.parallel_rlc_theory ~r () in
  let truth = Control.Second_order.performance_index zeta in
  Printf.printf "true peak: %.1f (zeta %.4f)\n" truth zeta;
  Printf.printf "%8s %8s %12s %10s\n" "ppd" "refine" "peak" "error";
  List.iter
    (fun (ppd, refine) ->
      let options =
        { Stability.Analysis.default_options with
          sweep = Numerics.Sweep.decade 1e3 1e9 ppd;
          refine }
      in
      let p =
        match
          (Stability.Analysis.single_node ~options circ "n")
            .Stability.Analysis.dominant
        with
        | Some d -> d.Stability.Peaks.value
        | None -> Float.nan
      in
      Printf.printf "%8d %8s %12.1f %9.1f%%\n" ppd
        (if refine then "yes" else "no")
        p
        (100. *. (p -. truth) /. Float.abs truth))
    [ (10, false); (30, false); (100, false); (300, false); (10, true);
      (30, true) ];

  section "Ablation 2 -- shared factorisation vs netlist-level probing";
  (* The all-nodes mode factors the AC matrix once per frequency and
     back-substitutes per net; the naive path rebuilds and refactors per
     net. Same numbers, different cost: the factorisation counts are
     exact, the times indicative. *)
  let opamp = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e3 1e9 10 in
  let nodes = Circuit.Netlist.node_names opamp in
  let probe = Stability.Probe.prepare opamp in
  let _, fast_sym, fast_num =
    factorisations (fun () -> Stability.Probe.response_many probe ~sweep nodes)
  in
  let t_fast =
    median_time (fun () -> Stability.Probe.response_many probe ~sweep nodes)
  in
  let slow () =
    List.map
      (fun n -> (n, Stability.Probe.response_via_netlist opamp ~sweep n))
      nodes
  in
  let _, slow_sym, slow_num = factorisations slow in
  let t_slow = median_time slow in
  Printf.printf
    "%d nets x %d frequencies: shared factorisation %d symbolic + %d \
     numeric, %.4f s; per-net AC runs %d symbolic + %d numeric, %.4f s \
     (%.1fx)\n"
    (List.length nodes)
    (Numerics.Sweep.count sweep)
    fast_sym fast_num t_fast slow_sym slow_num t_slow (t_slow /. t_fast);
  timing_note ();

  section "Ablation 3 -- fixed vs adaptive transient on the Fig 2 run";
  let fixed () = Engine.Transient.run ~tstop:8e-6 ~tstep:2e-9 opamp in
  let adaptive () =
    Engine.Transient.run_adaptive ~tstop:8e-6 ~dt_start:1e-9 ~lte_tol:5e-4
      opamp
  in
  let os r =
    (Engine.Measure.step_metrics ~initial:2.5 ~final:2.55
       (Engine.Transient.v r "out"))
      .Engine.Measure.overshoot_pct
  in
  let fixed_r = fixed () and adap_r = adaptive () in
  Printf.printf
    "fixed: %d pts, %.3f s, overshoot %.0f%%; adaptive: %d pts, %.3f s, \
     overshoot %.0f%%\n"
    (Array.length fixed_r.Engine.Transient.times)
    (median_time fixed) (os fixed_r)
    (Array.length adap_r.Engine.Transient.times)
    (median_time adaptive) (os adap_r);
  timing_note ()

(* ------------------------------------------------------------------ *)
(* Ablation 4: dense LU vs the compiled plan on growing ladders         *)

let rc_ladder n = Workloads.Ladder.rc ~sections:n ()

let run_ablation_plan () =
  section "Ablation 4 -- dense LU vs the compiled plan on growing ladders";
  Printf.printf "%8s %6s %9s %9s %11s %11s %9s\n" "unknowns" "nets"
    "plan sym" "plan num" "dense [s]" "plan [s]" "speedup";
  List.iter
    (fun n ->
      let circ = rc_ladder n in
      let probe = Stability.Probe.prepare circ in
      let sweep = Numerics.Sweep.decade 1e3 1e6 3 in
      let nodes =
        [ Printf.sprintf "n%d" (n / 2); Printf.sprintf "n%d" n ]
      in
      let run backend () =
        Stability.Probe.response_many ~backend probe ~sweep nodes
      in
      (* The plan path runs one symbolic analysis per block (the ladder
         is one block) and one numeric refactorisation per point; the
         dense path runs one dense LU per point, as many as the plan's
         numeric count, with no plan. *)
      let _, sym, num = factorisations (run `Plan) in
      let td = median_time (run `Dense) and tp = median_time (run `Plan) in
      Printf.printf "%8d %6d %9d %9d %11.4f %11.4f %8.1fx\n"
        (probe.Stability.Probe.mna.Engine.Mna.size)
        (List.length nodes) sym num td tp (td /. tp))
    [ 50; 100; 200; 400 ];
  timing_note ()

(* ------------------------------------------------------------------ *)
(* Summary                                                              *)

let print_summary () =
  section "Paper vs measured (see EXPERIMENTS.md)";
  Printf.printf "%-28s %-28s %-28s %s\n" "experiment" "paper" "measured" "ok";
  List.iter
    (fun (e, p, m, ok) ->
      Printf.printf "%-28s %-28s %-28s %s\n" e p m
        (if ok then "yes" else "NO"))
    (List.rev !summary);
  let bad = List.filter (fun (_, _, _, ok) -> not ok) !summary in
  Printf.printf "\n%d/%d experiment checks hold\n"
    (List.length !summary - List.length bad)
    (List.length !summary)

(* ------------------------------------------------------------------ *)
(* Bechamel timing benchmarks                                           *)

let timing_benchmarks () =
  section "Timing benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* Lighter-weight kernels representative of each experiment, so the
     timing run finishes quickly. *)
  let opamp = Workloads.Opamp_2mhz.buffer () in
  let opamp_probe = Stability.Probe.prepare opamp in
  let quick_opts =
    { Stability.Analysis.default_options with
      refine = false;
      sweep = Numerics.Sweep.decade 1e3 1e9 10 }
  in
  let bias = Workloads.Bias_zero_tc.cell () in
  let bias_probe = Stability.Probe.prepare bias in
  let dev, term = Workloads.Opamp_2mhz.feedback_break in
  let tests =
    [ Test.make ~name:"table1: closed forms"
        (Staged.stage (fun () -> Control.Second_order.table1 ()));
      Test.make ~name:"fig1: netlist build + compile"
        (Staged.stage (fun () ->
             Engine.Mna.compile (Workloads.Opamp_2mhz.buffer ())));
      Test.make ~name:"fig2: transient (1 us)"
        (Staged.stage (fun () ->
             Engine.Transient.run ~tstop:1e-6 ~tstep:4e-9 opamp));
      Test.make ~name:"fig3: middlebrook margins"
        (Staged.stage (fun () ->
             Engine.Loopgain.middlebrook
               ~sweep:(Numerics.Sweep.decade 1e4 1e8 10)
               opamp ~device:dev ~terminal:term));
      Test.make ~name:"fig4: single-node stability"
        (Staged.stage (fun () ->
             Stability.Analysis.single_node_prepared ~options:quick_opts
               opamp_probe Workloads.Opamp_2mhz.node_out));
      Test.make ~name:"table2: all-nodes scan"
        (Staged.stage (fun () ->
             Stability.Analysis.all_nodes_prepared ~options:quick_opts
               opamp_probe));
      Test.make ~name:"fig5: bias-cell all-nodes"
        (Staged.stage (fun () ->
             Stability.Analysis.all_nodes_prepared ~options:quick_opts
               bias_probe));
      Test.make ~name:"s1.2: rlc single-node"
        (Staged.stage (fun () ->
             Stability.Analysis.single_node ~options:quick_opts
               (sec12_circuit ()) "n"));
      Test.make ~name:"ext: exact poles (op-amp)"
        (Staged.stage (fun () -> Engine.Poles.of_circuit opamp));
      Test.make ~name:"ext: noise spectrum (op-amp)"
        (Staged.stage (fun () ->
             Engine.Noise.run ~sweep:(Numerics.Sweep.decade 1e4 1e8 5)
               ~output:"out" opamp)) ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Printf.printf "%-36s %16s\n" "kernel" "time/run";
  List.iter
    (fun test ->
      let raw = benchmark test in
      let results = analyze raw in
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | _ -> Float.nan
          in
          let time =
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Printf.printf "%-36s %16s\n" name time)
        results)
    tests

let () =
  ignore (run_table1 ());
  let circ = run_fig1 () in
  ignore (run_fig2 circ);
  ignore (run_fig3 circ);
  ignore (run_fig4 circ);
  ignore (run_table2 circ);
  ignore (run_fig5 ());
  ignore (run_sec12 ());
  run_ablations ();
  run_ablation_plan ();
  print_summary ();
  timing_benchmarks ();
  if List.exists (fun (_, _, _, ok) -> not ok) !summary then exit 1
