(* The stability library — the paper's contribution — against circuits with
   exactly known complex poles and zeros. *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

(* ---------- probing ---------- *)

let test_probe_paths_agree () =
  (* Shared-factorisation probing must equal the netlist-level reference
     (attach an Isource, run plain AC on the whole system) to solver
     precision — also where the probe solves only the net's block of a
     chain. The chain's x2 nets are graded [Degraded]: there the
     whole-system dense and plan solves already differ by about 1e-9. *)
  List.iter
    (fun (circ, sweep, nets, tol) ->
      let probe = Stability.Probe.prepare circ in
      List.iter
        (fun net ->
          let fast = Stability.Probe.response probe ~sweep net in
          let slow = Stability.Probe.response_via_netlist circ ~sweep net in
          Array.iteri
            (fun k hf ->
              Alcotest.(check bool)
                (Printf.sprintf "%s agrees at point %d" net k)
                true
                (Numerics.Cx.close ~tol hf slow.Numerics.Waveform.Freq.h.(k)))
            fast.Numerics.Waveform.Freq.h)
        nets)
    [ (Workloads.Filters.parallel_rlc (), Numerics.Sweep.decade 1e5 1e8 20,
       [ "n" ], 1e-9);
      (Workloads.Synth.amp_array ~stages:3 (),
       Numerics.Sweep.decade 1e6 1e8 20, [ "fb_0"; "x2_1"; "fb_2" ], 1e-8) ]

(* A batch comes back in the caller's net order, each net equal to its
   own single-net probe — also when the nets interleave the blocks of a
   chain. *)
let test_probe_many_matches_single () =
  List.iter
    (fun (circ, sweep, nodes) ->
      let probe = Stability.Probe.prepare circ in
      let many = Stability.Probe.response_many probe ~sweep nodes in
      Alcotest.(check (list string)) "caller order" nodes (List.map fst many);
      List.iter
        (fun (n, from_many) ->
          let single = Stability.Probe.response probe ~sweep n in
          Array.iteri
            (fun k h ->
              Alcotest.(check bool) (n ^ " identical") true
                (Numerics.Cx.close ~tol:1e-12 h
                   from_many.Numerics.Waveform.Freq.h.(k)))
            single.Numerics.Waveform.Freq.h)
        many)
    [ (Workloads.Opamp_2mhz.buffer (), Numerics.Sweep.decade 1e5 1e8 5,
       [ "out"; "o1" ]);
      (* Five nets across four blocks. *)
      (Workloads.Synth.amp_array ~stages:3 (),
       Numerics.Sweep.decade 1e6 1e8 10,
       [ "fb_2"; "x2_0"; "fb_0"; "x3_2"; "fb_1" ]) ]

let test_probe_rejects_ground () =
  let circ = Workloads.Filters.parallel_rlc () in
  let probe = Stability.Probe.prepare circ in
  Alcotest.(check bool) "ground rejected" true
    (try
       ignore
         (Stability.Probe.response probe
            ~sweep:(Numerics.Sweep.List [| 1e6 |])
            "0");
       false
     with Invalid_argument _ -> true)

let test_probe_backends_agree () =
  (* Dense LU and the compiled plan's sparse refactorisation of the same
     system must agree to solver precision; force both on a mid-size
     circuit. *)
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 10 in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1"; "vcasc" ] in
  let dense = Stability.Probe.response_many ~backend:`Dense probe ~sweep nodes in
  let plan = Stability.Probe.response_many ~backend:`Plan probe ~sweep nodes in
  List.iter2
    (fun (n1, w1) (n2, w2) ->
      Alcotest.(check string) "node order" n1 n2;
      Array.iteri
        (fun k h ->
          Alcotest.(check bool)
            (Printf.sprintf "%s agrees at point %d" n1 k)
            true
            (Numerics.Cx.close ~tol:1e-9 h
               w2.Numerics.Waveform.Freq.h.(k)))
        w1.Numerics.Waveform.Freq.h)
    dense plan

let test_probe_parallel_agrees () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 15 in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1" ] in
  let seq = Stability.Probe.response_many probe ~sweep nodes in
  let par = Stability.Probe.response_many ~parallel:`Par probe ~sweep nodes in
  List.iter2
    (fun (_, w1) (_, w2) ->
      Array.iteri
        (fun k h ->
          Alcotest.(check bool) "parallel equals sequential" true
            (Numerics.Cx.close ~tol:1e-14 h
               w2.Numerics.Waveform.Freq.h.(k)))
        w1.Numerics.Waveform.Freq.h)
    seq par

(* ---------- single-node on known circuits ---------- *)

let test_rlc_tank_estimates () =
  let r = 100. and l = 1e-6 and c = 1e-9 in
  let fn, zeta = Workloads.Filters.parallel_rlc_theory ~r ~l ~c () in
  let circ = Workloads.Filters.parallel_rlc ~r ~l ~c () in
  let res = Stability.Analysis.single_node circ "n" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    check_close ~tol:1e-3 "natural frequency" fn d.Stability.Peaks.freq;
    check_close ~tol:1e-2 "performance index"
      (Control.Second_order.performance_index zeta)
      d.Stability.Peaks.value;
    (match d.Stability.Peaks.zeta with
     | Some z -> check_close ~tol:1e-2 "zeta" zeta z
     | None -> Alcotest.fail "no zeta estimate")
  | None -> Alcotest.fail "tank pole not found"

let prop_rlc_random =
  QCheck.Test.make ~name:"random RLC tanks measure their analytic zeta"
    ~count:40
    QCheck.(pair (float_range 30. 3000.) (float_range 0.2 5.))
    (fun (r, l_scale) ->
      let l = l_scale *. 1e-6 and c = 1e-9 in
      let fn, zeta = Workloads.Filters.parallel_rlc_theory ~r ~l ~c () in
      QCheck.assume (zeta > 0.03 && zeta < 0.95);
      QCheck.assume (fn > 5e3 && fn < 5e8);
      let circ = Workloads.Filters.parallel_rlc ~r ~l ~c () in
      let res = Stability.Analysis.single_node circ "n" in
      match res.Stability.Analysis.dominant with
      | Some d ->
        let ok_freq = Float.abs (d.Stability.Peaks.freq /. fn -. 1.) < 0.02 in
        let ok_peak =
          Float.abs
            (d.Stability.Peaks.value
             -. Control.Second_order.performance_index zeta)
          < 0.05 *. Float.abs (Control.Second_order.performance_index zeta)
          +. 0.1
        in
        ok_freq && ok_peak
      | None -> false)

let test_complex_zero_positive_peak () =
  let rser = 20. and l = 100e-6 and c = 1e-9 in
  let fz, zeta_z = Workloads.Filters.notch_zero_theory ~rser ~l ~c () in
  let circ = Workloads.Filters.notch_with_zero ~rser ~l ~c () in
  (* Probe the node where the notch appears. *)
  let res = Stability.Analysis.single_node circ "out" in
  let zeros =
    List.filter
      (fun (p : Stability.Peaks.peak) -> p.kind = Stability.Peaks.Complex_zero)
      res.Stability.Analysis.peaks
  in
  match zeros with
  | z :: _ ->
    check_close ~tol:2e-2 "zero frequency" fz z.Stability.Peaks.freq;
    (* A complex-zero pair mirrors eq 1.4: peak ~ +1/zeta_z^2. *)
    check_close ~tol:0.15 "zero peak ~ +1/zeta^2"
      (1. /. (zeta_z *. zeta_z))
      z.Stability.Peaks.value
  | [] -> Alcotest.fail "complex zero not reported"

let test_sallen_key_q () =
  let q = 2.5 in
  let fn, zeta = Workloads.Filters.sallen_key_theory ~q () in
  let circ = Workloads.Filters.sallen_key_lowpass ~q () in
  (* The amplifier output is pinned by the ideal VCVS, so it cannot be
     current-probed; the tool must say so clearly... *)
  Alcotest.(check bool) "pinned net rejected with a clear error" true
    (try ignore (Stability.Analysis.single_node circ "out"); false
     with Failure m ->
       let contains s sub =
         let n = String.length s and k = String.length sub in
         let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
         go 0
       in
       contains m "no finite AC response");
  (* ...and the filter's state node carries the complex pair. *)
  let res = Stability.Analysis.single_node circ "x2" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    check_close ~tol:2e-2 "fn" fn d.Stability.Peaks.freq;
    (match d.Stability.Peaks.zeta with
     | Some z -> check_close ~tol:3e-2 "zeta = 1/(2q)" zeta z
     | None -> Alcotest.fail "no zeta")
  | None -> Alcotest.fail "sallen-key pole not found"

let test_shoulders_suppressed () =
  (* A single sharp pole pair must report exactly one significant peak:
     the side-lobes of the dip are not complex zeros. *)
  let circ = Workloads.Filters.parallel_rlc ~r:300. () in
  let res = Stability.Analysis.single_node circ "n" in
  let significant =
    List.filter
      (fun (p : Stability.Peaks.peak) -> Float.abs p.Stability.Peaks.value > 1.)
      res.Stability.Analysis.peaks
  in
  Alcotest.(check int) "one significant peak" 1 (List.length significant)

let test_end_of_range_notice () =
  (* Sweep that stops below the tank resonance: the stability function is
     still descending at the edge -> end-of-range notice. *)
  let circ = Workloads.Filters.parallel_rlc () in
  (* fn ~ 5 MHz; sweep to 4.8 MHz. *)
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e4 4.8e6 60;
      refine = false }
  in
  let res = Stability.Analysis.single_node ~options circ "n" in
  Alcotest.(check bool) "end-of-range flagged" true
    (List.exists
       (fun (p : Stability.Peaks.peak) ->
         List.mem Stability.Peaks.End_of_range p.Stability.Peaks.notices)
       res.Stability.Analysis.peaks)

let test_refinement_improves_peak () =
  (* On a very sharp peak a coarse grid underestimates the depth; the zoom
     refinement must recover it. *)
  let r = 1000. in
  let _, zeta = Workloads.Filters.parallel_rlc_theory ~r () in
  let circ = Workloads.Filters.parallel_rlc ~r () in
  let coarse_opts =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 10;
      refine = false }
  in
  let refined_opts = { coarse_opts with refine = true } in
  let expected = Control.Second_order.performance_index zeta in
  let peak_of opts =
    match
      (Stability.Analysis.single_node ~options:opts circ "n")
        .Stability.Analysis.dominant
    with
    | Some d -> d.Stability.Peaks.value
    | None -> Alcotest.fail "no peak"
  in
  let coarse = peak_of coarse_opts in
  let refined = peak_of refined_opts in
  Alcotest.(check bool)
    (Printf.sprintf "coarse %.0f misses the true %.0f" coarse expected)
    true
    (Float.abs (coarse -. expected) > 0.2 *. Float.abs expected);
  check_close ~tol:5e-2 "refined depth" expected refined

(* ---------- all-nodes, loops, reports ---------- *)

let test_all_nodes_rlc_cluster () =
  (* Two independent tanks -> two loops at their natural frequencies. *)
  let open Circuit.Netlist in
  let c = empty ~title:"two tanks" () in
  let c = resistor c "R1" "a" "0" 100. in
  let c = inductor c "L1" "a" "0" 1e-6 in
  let c = capacitor c "C1" "a" "0" 1e-9 in
  let c = resistor c "R2" "b" "0" 100. in
  let c = inductor c "L2" "b" "0" 10e-6 in
  let c = capacitor c "C2" "b" "0" 10e-9 in
  (* Weak coupling so both nets exist in one connected circuit. *)
  let c = resistor c "RC" "a" "b" 1e9 in
  let results = Stability.Analysis.all_nodes c in
  let loops = Stability.Loops.cluster results in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let fn1, _ = Workloads.Filters.parallel_rlc_theory () in
  let fn2, _ =
    Workloads.Filters.parallel_rlc_theory ~l:10e-6 ~c:10e-9 ()
  in
  (match loops with
   | [ l1; l2 ] ->
     check_close ~tol:2e-2 "slow tank" (Float.min fn1 fn2)
       l1.Stability.Loops.natural_freq;
     check_close ~tol:2e-2 "fast tank" (Float.max fn1 fn2)
       l2.Stability.Loops.natural_freq
   | _ -> Alcotest.fail "unexpected loop structure")

(* Twenty identical stages ring at one frequency, but each is its own
   strongly connected block: all-nodes reads one loop per stage holding
   exactly that stage's nets, and every net of the static probe cover
   lies in the loop of its own block. *)
let test_chain_loop_per_block () =
  let stages = 20 in
  let circ = Workloads.Synth.amp_array ~stages () in
  let loops = Stability.Loops.cluster (Stability.Analysis.all_nodes circ) in
  let nets (l : Stability.Loops.loop) =
    List.sort compare
      (List.map (fun (m : Stability.Loops.member) -> m.node) l.members)
  in
  let stage_nets s =
    List.sort compare (List.map (fun x -> Printf.sprintf "%s_%d" x s)
                         [ "x3"; "fb"; "x2" ])
  in
  Alcotest.(check (list (list string))) "one loop per stage, its own nets"
    (List.sort compare (List.init stages stage_nets))
    (List.sort compare (List.map nets loops));
  let probe = Stability.Probe.prepare circ in
  let cover = (Staticanalysis.Report.analyze circ).Staticanalysis.Report.cover in
  Alcotest.(check bool) "the cover names a net per stage" true
    (List.length cover >= stages);
  List.iter
    (fun net ->
      let block = Stability.Probe.block_of probe net in
      match
        List.find_opt (fun (l : Stability.Loops.loop) -> l.block = block) loops
      with
      | Some l ->
        Alcotest.(check bool)
          (Printf.sprintf "cover net %s in its block's loop" net)
          true (List.mem net (nets l))
      | None -> Alcotest.failf "no loop for cover net %s's block %d" net block)
    cover

let test_report_format () =
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let report = Stability.Report.all_nodes_string results in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains report "Stability Peak");
  Alcotest.(check bool) "mentions the loop" true (contains report "Loop at");
  Alcotest.(check bool) "mentions the node" true (contains report "n");
  let single =
    Stability.Report.single_node_string (List.hd results)
  in
  Alcotest.(check bool) "single-node mentions dominant" true
    (contains single "dominant")

(* ---------- degraded nodes (clamped response samples) ---------- *)

let second_order_response ~zeta ~fn freqs =
  Array.map
    (fun f ->
      let x = f /. fn in
      let re = 1. -. (x *. x) and im = 2. *. zeta *. x in
      Complex.div Complex.one { Complex.re; im })
    freqs

let test_plot_degraded_completes () =
  (* Regression: a response with an underflowed-to-zero sample (deep notch)
     or a non-finite solve used to raise Invalid_argument out of
     Stability_plot and kill the whole run. It must now complete, flagged. *)
  let freqs = Numerics.Sweep.points (Numerics.Sweep.decade 1e4 1e8 60) in
  let h = second_order_response ~zeta:0.2 ~fn:1e6 freqs in
  h.(100) <- Complex.zero;
  h.(200) <- { Complex.re = Float.nan; im = 0. };
  let w = Numerics.Waveform.Freq.make freqs h in
  let plot = Stability.Stability_plot.of_response w in
  Alcotest.(check int) "two samples clamped" 2
    plot.Stability.Stability_plot.clamped;
  Alcotest.(check bool) "flagged degraded" true
    (Stability.Stability_plot.degraded plot);
  Alcotest.(check bool) "P finite everywhere" true
    (Array.for_all Float.is_finite plot.Stability.Stability_plot.p);
  (* The floor is 14 decades down, so the clamped notch dominates the
     plot: the global minimum is the floor artefact at the clamped sample,
     not the physical resonance — exactly why reports must flag these
     nodes instead of trusting their peaks. *)
  let fpk, vpk = Stability.Stability_plot.global_minimum plot in
  check_close ~tol:0.2 "global minimum sits at the clamp artefact"
    freqs.(100) fpk;
  Alcotest.(check bool) "artefact dwarfs any physical peak" true
    (vpk < -1000.);
  (* A clean response is not flagged. *)
  let clean =
    Stability.Stability_plot.of_response
      (Numerics.Waveform.Freq.make freqs
         (second_order_response ~zeta:0.2 ~fn:1e6 freqs))
  in
  Alcotest.(check bool) "clean plot not degraded" false
    (Stability.Stability_plot.degraded clean)

let test_plot_value_at_range () =
  let freqs = Numerics.Sweep.points (Numerics.Sweep.decade 1e4 1e8 30) in
  let w =
    Numerics.Waveform.Freq.make freqs
      (second_order_response ~zeta:0.3 ~fn:1e6 freqs)
  in
  let plot = Stability.Stability_plot.of_response w in
  (match Stability.Stability_plot.value_at_opt plot 1e6 with
   | Some v ->
     check_close "opt agrees with raising form"
       (Stability.Stability_plot.value_at plot 1e6) v
   | None -> Alcotest.fail "in-range query answered None");
  Alcotest.(check bool) "below sweep is None" true
    (Stability.Stability_plot.value_at_opt plot 1e3 = None);
  Alcotest.(check bool) "above sweep is None" true
    (Stability.Stability_plot.value_at_opt plot 1e9 = None);
  Alcotest.(check bool) "raising form raises out of range" true
    (try
       ignore (Stability.Stability_plot.value_at plot 1e3);
       false
     with Invalid_argument _ -> true)

let test_report_flags_degraded () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let clean_report = Stability.Report.all_nodes_string results in
  Alcotest.(check bool) "clean run has no degraded section" false
    (contains clean_report "Degraded");
  (* Force one node's result into the degraded state and check both report
     flavours surface it. *)
  let degraded_results =
    List.map
      (fun r -> { r with Stability.Analysis.degraded = 3 })
      results
  in
  let report = Stability.Report.all_nodes_string degraded_results in
  Alcotest.(check bool) "all-nodes report flags degraded nodes" true
    (contains report "Degraded");
  Alcotest.(check bool) "clamp count shown" true
    (contains report "3 sample(s) clamped");
  let single =
    Stability.Report.single_node_string (List.hd degraded_results)
  in
  Alcotest.(check bool) "single-node report flags degradation" true
    (contains single "DEGRADED")

let test_annotation () =
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let text = Stability.Annotate.netlist_string circ results in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "net annotated" true (contains text "n: peak");
  Alcotest.(check bool) "devices listed" true (contains text "R1");
  Alcotest.(check bool) "summary block" true (contains text "per-net summary")

(* ---------- limitations (documented) ---------- *)

let test_rhp_poles_look_stable_in_the_plot () =
  (* A known limitation of the method: the stability plot reads the peak
     magnitude, which depends on |Re(s)| but not its sign — a loop with
     right-half-plane poles produces the same deep peak as a stable loop
     with mirrored poles. The exact pole analysis disambiguates. *)
  let open Circuit.Netlist in
  let c = empty ~title:"negative-resistance tank" () in
  let c = inductor c "L1" "n" "0" 1e-6 in
  let c = capacitor c "C1" "n" "0" 1e-9 in
  let c = resistor c "R1" "n" "0" 100. in       (* zeta_R = +0.158 *)
  let c = vccs c "GNEG" "n" "0" "n" "0" (-15e-3) in (* tips net damping < 0 *)
  let poles = Engine.Poles.of_circuit c in
  Alcotest.(check bool) "eigenvalues see the instability" false
    (Engine.Poles.is_stable poles);
  let res = Stability.Analysis.single_node c "n" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    (* The plot still reports a deep negative peak with a positive zeta
       estimate — it flags the loop as critical but cannot give the sign. *)
    Alcotest.(check bool) "plot flags the loop" true
      (d.Stability.Peaks.value < -5.);
    Alcotest.(check bool) "zeta estimate is unsigned" true
      (match d.Stability.Peaks.zeta with Some z -> z > 0. | None -> false)
  | None -> Alcotest.fail "plot missed the resonance entirely"

(* ---------- physical invariants ---------- *)

let test_reciprocity () =
  (* RLC networks are reciprocal: Z(k <- j) = Z(j <- k). Measured through
     the same factorisation path the probing uses. *)
  let open Circuit.Netlist in
  let c = empty ~title:"ladder" () in
  let c = resistor c "R1" "a" "b" 1e3 in
  let c = capacitor c "C1" "b" "0" 1e-9 in
  let c = inductor c "L1" "b" "c" 10e-6 in
  let c = resistor c "R2" "c" "0" 2e3 in
  let c = capacitor c "C2" "a" "0" 0.5e-9 in
  let c = resistor c "R3" "a" "0" 10e3 in
  let mna = Engine.Mna.compile c in
  let op = Engine.Dcop.solve mna in
  let ia = Engine.Mna.node_index mna "a" in
  let ic = Engine.Mna.node_index mna "c" in
  List.iter
    (fun f ->
      let lu =
        Engine.Ac.factor_at ~op ~omega:(2. *. Float.pi *. f) mna
      in
      let solve k =
        let b = Array.make mna.Engine.Mna.size Numerics.Cx.zero in
        b.(k) <- Numerics.Cx.one;
        Numerics.Cmat.lu_solve lu b
      in
      let z_ca = (solve ia).(ic) in
      let z_ac = (solve ic).(ia) in
      Alcotest.(check bool)
        (Printf.sprintf "Z(c<-a) = Z(a<-c) at %g Hz" f)
        true
        (Numerics.Cx.close ~tol:1e-12 z_ca z_ac))
    [ 1e3; 1e5; 1e7 ]

let test_transient_ring_frequency_matches_plot () =
  (* The buffer's transient ring period must match the natural frequency
     the AC-domain stability plot reports (time/frequency consistency). *)
  let circ = Workloads.Opamp_2mhz.buffer () in
  let d =
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
    |> Option.get
  in
  let fn = d.Stability.Peaks.freq in
  let zeta = Option.get d.Stability.Peaks.zeta in
  let fd = fn *. sqrt (1. -. (zeta *. zeta)) in
  let tr = Engine.Transient.run ~tstop:6e-6 ~tstep:2e-9 circ in
  let w = Engine.Transient.v tr "out" in
  (* Ring frequency from the crossings of the settled value after the
     step fires at 1 us. *)
  let crossings =
    Numerics.Interp.crossings ~x:w.Numerics.Waveform.Real.x
      ~y:w.Numerics.Waveform.Real.y 2.55
    |> List.filter (fun t -> t > 1.2e-6 && t < 4e-6)
  in
  Alcotest.(check bool) "enough ring cycles" true
    (List.length crossings >= 6);
  let rec spans = function
    | a :: (b :: _ as rest) -> (b -. a) :: spans rest
    | _ -> []
  in
  let half_periods = spans crossings in
  let mean =
    List.fold_left ( +. ) 0. half_periods
    /. float_of_int (List.length half_periods)
  in
  let f_ring = 1. /. (2. *. mean) in
  check_close ~tol:0.08 "ring frequency = damped natural frequency" fd
    f_ring

(* ---------- cross-validation against exact TF mathematics ---------- *)

let test_cross_validation_with_tf () =
  (* Closed-loop TF of a two-pole unity-feedback loop; the circuit-level
     stability plot at the loop output must find the TF's dominant pole. *)
  let gain_a = 300. and p1 = 1e4 and p2 = 3e6 in
  let l =
    Control.Tf.of_real_coeffs ~num:[| gain_a |]
      ~den:
        [| 1.;
           (1. /. (2. *. Float.pi *. p1)) +. (1. /. (2. *. Float.pi *. p2));
           1. /. (4. *. Float.pi *. Float.pi *. p1 *. p2) |]
  in
  let cl = Control.Tf.feedback l in
  let wn_tf, zeta_tf =
    match Control.Tf.dominant_complex_pole cl with
    | Some x -> x
    | None -> Alcotest.fail "TF has no complex pole"
  in
  (* Same loop as a circuit. *)
  let open Circuit.Netlist in
  let c = empty ~title:"tf cross-check" () in
  let c = vsource c "VIN" "in" "0" (ac_source 0.) in
  let c = vcvs c "EAMP" "x1" "0" "in" "fb" gain_a in
  let c = resistor c "R1" "x1" "x2" 1e3 in
  let c = capacitor c "C1" "x2" "0" (1. /. (2. *. Float.pi *. p1 *. 1e3)) in
  let c = vcvs c "EBUF" "x2b" "0" "x2" "0" 1. in
  let c = resistor c "R2" "x2b" "fb" 1e3 in
  let c = capacitor c "C2" "fb" "0" (1. /. (2. *. Float.pi *. p2 *. 1e3)) in
  let res = Stability.Analysis.single_node c "fb" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    check_close ~tol:1e-2 "fn matches TF pole"
      (wn_tf /. (2. *. Float.pi))
      d.Stability.Peaks.freq;
    (match d.Stability.Peaks.zeta with
     | Some z -> check_close ~tol:2e-2 "zeta matches TF pole" zeta_tf z
     | None -> Alcotest.fail "no zeta estimate")
  | None -> Alcotest.fail "dominant pole not found"

(* ---------- AC-plan backends ---------- *)

(* The compiled-plan solve path is a pure performance refactor: forcing
   each backend over the same deck must produce the same node set, the
   same peak structure, and numerically equivalent estimates: within
   1e-6 on the shipped two-pole loop, and within 0.1% on the op-amp,
   whose larger system the two backends eliminate in different orders
   (natural order for dense LU, minimum degree for the plan). *)
let test_all_nodes_backends_agree () =
  List.iter
    (fun (deck, circ, sweep, tol) ->
      let run backend =
        let options =
          { Stability.Analysis.default_options with sweep; backend }
        in
        Stability.Analysis.all_nodes ~options circ
      in
      let dense = run `Dense in
      let plan = run `Plan in
      Alcotest.(check bool) (deck ^ ": some nets analysed") true
        (List.length dense > 0);
      Alcotest.(check (list string)) (deck ^ ": same nets")
        (List.map (fun r -> r.Stability.Analysis.node) dense)
        (List.map (fun r -> r.Stability.Analysis.node) plan);
      List.iter2
        (fun ra rb ->
          let label = deck ^ " " ^ ra.Stability.Analysis.node in
          let pa = ra.Stability.Analysis.peaks
          and pb = rb.Stability.Analysis.peaks in
          Alcotest.(check int) (label ^ " peak count")
            (List.length pa) (List.length pb);
          List.iter2
            (fun (p : Stability.Peaks.peak) (q : Stability.Peaks.peak) ->
              Alcotest.(check bool) (label ^ " same peak kind") true
                (p.kind = q.kind);
              check_close ~tol (label ^ " natural frequency") p.freq q.freq;
              check_close ~tol (label ^ " performance index") p.value
                q.value)
            pa pb)
        dense plan)
    [ ("two_pole_loop",
       Circuit.Parser.parse_file "../circuits/two_pole_loop.sp",
       Numerics.Sweep.decade 1e2 1e8 20, 1e-6);
      ("op-amp", Workloads.Opamp_2mhz.buffer (),
       Numerics.Sweep.decade 1e3 1e9 20, 1e-3) ]

(* The plan's whole point: one symbolic analysis per sweep and one
   numeric refactorisation per frequency point, however many nets are
   probed. Asserted through the factorisation counters. *)
let test_plan_factorisation_counts () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 10 in
  let points = Array.length (Numerics.Sweep.points sweep) in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1"; "vcasc" ] in
  let before = Engine.Ac_plan.totals () in
  ignore (Stability.Probe.response_many ~backend:`Plan probe ~sweep nodes);
  let after = Engine.Ac_plan.totals () in
  Alcotest.(check int) "no pivot-order fallbacks" 0
    (after.Engine.Ac_plan.fallback - before.Engine.Ac_plan.fallback);
  Alcotest.(check int) "one symbolic analysis per sweep" 1
    (after.Engine.Ac_plan.symbolic - before.Engine.Ac_plan.symbolic);
  Alcotest.(check int) "one numeric refactorisation per point" points
    (after.Engine.Ac_plan.numeric - before.Engine.Ac_plan.numeric);
  Alcotest.(check int) "one RHS per probed net per point"
    (points * List.length nodes)
    (after.Engine.Ac_plan.rhs - before.Engine.Ac_plan.rhs)

(* ---------- compiled kernels ---------- *)

(* The kernel's contract is stronger than numerical agreement: it
   replays the plan backend's exact float operation sequence, so every
   comparison below is on the raw IEEE bits, not a tolerance. *)

let complex_bits z =
  (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im)

let check_waves_bit_identical label a b =
  List.iter2
    (fun (n1, w1) (n2, w2) ->
      Alcotest.(check string) (label ^ ": node order") n1 n2;
      Array.iteri
        (fun k h ->
          if complex_bits h
             <> complex_bits w2.Numerics.Waveform.Freq.h.(k)
          then
            Alcotest.failf "%s: net %s differs bit-wise at point %d" label
              n1 k)
        w1.Numerics.Waveform.Freq.h)
    a b

(* Every shipped deck, every net, both batch shapes: the multi-RHS
   sweep (m > 1 reciprocal back-substitution) and the single-net sweep
   (m = 1 division form — a genuinely different float sequence the
   kernel must reproduce too). *)
let test_kernel_bits_shipped_decks () =
  List.iter
    (fun file ->
      let circ = Circuit.Parser.parse_file ("../circuits/" ^ file) in
      let probe = Stability.Probe.prepare circ in
      let sweep = Numerics.Sweep.decade 1e2 1e8 8 in
      let nodes = Circuit.Netlist.node_names circ in
      let run backend nodes =
        Stability.Probe.response_many ~backend probe ~sweep nodes
      in
      check_waves_bit_identical (file ^ " all nets")
        (run `Plan nodes) (run `Kernel nodes);
      let first = [ List.hd nodes ] in
      check_waves_bit_identical (file ^ " single net")
        (run `Plan first) (run `Kernel first))
    [ "two_pole_loop.sp"; "sallen_key.sp"; "double_tuned.sp";
      "emitter_follower.sp"; "wilson_mirror.sp" ]

(* Property: over the synthetic generator family (mesh / tree / amp
   array, varying shape), [Kernel.solve_many] is bit-identical to
   [Ac_plan.solve_many] on the same plan, across frequencies and for
   both batch shapes. *)
let prop_kernel_bits_synth =
  QCheck.Test.make ~name:"synth circuits: kernel = plan, bit for bit"
    ~count:9
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let circ =
        match seed mod 3 with
        | 0 ->
          Workloads.Synth.rc_mesh ~rows:(2 + (seed mod 3))
            ~cols:(2 + (seed / 3 mod 3)) ()
        | 1 ->
          Workloads.Synth.rc_tree ~depth:2 ~fanout:(2 + (seed mod 2)) ()
        | _ -> Workloads.Synth.amp_array ~stages:(1 + (seed mod 3)) ()
      in
      let mna = Engine.Mna.compile circ in
      let op = Engine.Dcop.solve mna in
      let plan =
        Engine.Ac_plan.compile ~gmin:1e-12 ~omega_ref:(2e6 *. Float.pi)
          ~op mna
      in
      let kern = Engine.Kernel.compile plan in
      let size = mna.Engine.Mna.size in
      let unit k =
        let b = Array.make size Numerics.Cx.zero in
        b.(k) <- Numerics.Cx.one;
        b
      in
      let bs = [| unit 0; unit (size / 2); unit (size - 1) |] in
      List.for_all
        (fun f ->
          let omega = 2. *. Float.pi *. f in
          let same xs ys =
            Array.for_all2
              (fun x y ->
                Array.for_all2
                  (fun a b -> complex_bits a = complex_bits b)
                  x y)
              xs ys
          in
          same
            (Engine.Ac_plan.solve_many plan ~omega bs)
            (Engine.Kernel.solve_many kern ~omega bs)
          && same
               (Engine.Ac_plan.solve_many plan ~omega [| bs.(0) |])
               (Engine.Kernel.solve_many kern ~omega [| bs.(0) |]))
        [ 1e2; 1e5; 1e9 ])

(* Chunked pooled execution writes disjoint cells and never enters the
   arithmetic, so parallel kernel sweeps are bit-identical to
   sequential — on real worker domains, not an inlined pool. *)
let test_kernel_seq_par_identical () =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs 3;
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.set_jobs saved;
      Parallel.Pool.set_oversubscribe false;
      Parallel.Pool.shutdown ())
    (fun () ->
      let sweep = Numerics.Sweep.decade 1e3 1e9 40 in
      List.iter
        (fun (label, circ, nodes) ->
          let probe = Stability.Probe.prepare circ in
          let seq =
            Stability.Probe.response_many ~backend:`Kernel ~parallel:`Seq
              probe ~sweep nodes
          in
          let par =
            Stability.Probe.response_many ~backend:`Kernel ~parallel:`Par
              probe ~sweep nodes
          in
          check_waves_bit_identical (label ^ ": kernel seq vs par") seq par)
        [ ("op-amp", Workloads.Opamp_2mhz.buffer (), [ "out"; "o1"; "vcasc" ]);
          (* Four blocks probed, nets interleaved across them. *)
          ("amp_array 3", Workloads.Synth.amp_array ~stages:3 (),
           [ "fb_2"; "fb_0"; "x2_2"; "in"; "fb_1" ]) ])

(* The compile/point budget: one kernel compilation per sweep, every
   point advanced through the kernel, zero stale-pivot fallbacks on a
   healthy deck — and a shared pre-compiled kernel recompiles nothing. *)
let test_kernel_counter_budget () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 10 in
  let points = Array.length (Numerics.Sweep.points sweep) in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1" ] in
  let before = Engine.Kernel.totals () in
  ignore
    (Stability.Probe.response_many ~backend:`Kernel probe ~sweep nodes);
  let after = Engine.Kernel.totals () in
  Alcotest.(check int) "one kernel compile per sweep" 1
    (after.Engine.Kernel.compiles - before.Engine.Kernel.compiles);
  Alcotest.(check int) "every point through the kernel" points
    (after.Engine.Kernel.points - before.Engine.Kernel.points);
  Alcotest.(check int) "no stale-pivot fallbacks" 0
    (after.Engine.Kernel.fallback - before.Engine.Kernel.fallback);
  Alcotest.(check bool) "batch high-water bounded by chunk" true
    (after.Engine.Kernel.batch_max <= Engine.Kernel.chunk
     && after.Engine.Kernel.batch_max > 0);
  (* Warm path: a caller holding a compiled kernel pays zero compiles,
     and the answers are the ones the cold path produced. *)
  let kerns = Engine.Kernel.on_demand (Stability.Probe.plan probe ~sweep) in
  ignore (Engine.Kernel.get kerns 0);
  let base = (Engine.Kernel.totals ()).Engine.Kernel.compiles in
  let shared =
    Stability.Probe.response_many ~kernel:kerns probe ~sweep nodes
  in
  Alcotest.(check int) "shared kernel compiles nothing" base
    (Engine.Kernel.totals ()).Engine.Kernel.compiles;
  check_waves_bit_identical "shared kernel answers"
    (Stability.Probe.response_many ~backend:`Kernel probe ~sweep nodes)
    shared

(* The kernel's sweep allocates little beyond its outputs: with health
   sampling off and after one warm-up run, [Kernel.run] over the
   op-amp's 121-point sweep of all 13 nets allocates at most 8 minor
   words per value written (about 7 go into building each output's
   boxed complex). The plan backend's per-point fill and factorisation
   allocate about 50 times that; an allocation slipping into the
   kernel's loop shows here as a count that repeats exactly, where a
   wall-clock ratio against the plan would be noise. *)
let test_kernel_sweep_allocation () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let probe = Stability.Probe.prepare circ in
  let sweep = Numerics.Sweep.decade 1e3 1e9 20 in
  let freqs = Numerics.Sweep.points sweep in
  let npts = Array.length freqs in
  let mna = probe.Stability.Probe.mna in
  let sel =
    Array.of_list
      (List.map (Engine.Mna.node_index mna) (Circuit.Netlist.node_names circ))
  in
  let rhs =
    Array.map
      (fun i ->
        let b = Array.make mna.Engine.Mna.size Numerics.Cx.zero in
        b.(i) <- Numerics.Cx.one;
        b)
      sel
  in
  let outs = Array.map (fun _ -> Array.make npts Numerics.Cx.zero) sel in
  let kern =
    let plans = Stability.Probe.plan probe ~sweep in
    match Engine.Ac_plan.count plans with
    | 1 -> Engine.Kernel.compile (Engine.Ac_plan.get plans 0)
    | n -> Alcotest.failf "op-amp in %d blocks" n
  in
  let ws = Engine.Kernel.workspace kern ~rhs in
  let sweep_once () =
    Engine.Kernel.run ws ~freqs ~lo:0 ~hi:npts ~sel ~outs
  in
  Engine.Health.set_sample_every 1_000_000_000;
  let words =
    Fun.protect
      ~finally:(fun () ->
        Engine.Health.set_sample_every Engine.Health.default_sample_every)
      (fun () ->
        sweep_once ();
        let w0 = Gc.minor_words () in
        sweep_once ();
        Gc.minor_words () -. w0)
  in
  let values = npts * Array.length sel in
  Alcotest.(check int) "121 points x 13 nets" (121 * 13) values;
  if words > 8. *. Float.of_int values then
    Alcotest.failf "kernel sweep allocated %.0f words for %d values (%.2f each)"
      words values (words /. Float.of_int values)

(* ---------- numerical-health grading ---------- *)

(* Health telemetry costs one estimate per sampled point, so its price
   is the sample count: a P-point sweep at the default interval of 16
   records P/16 samples (to within one: the sample clock is
   process-wide, so its phase at the first point varies), on every
   backend. *)
let test_health_sample_count () =
  Engine.Health.set_sample_every Engine.Health.default_sample_every;
  let circ = Workloads.Opamp_2mhz.buffer () in
  let probe = Stability.Probe.prepare circ in
  let sweep = Numerics.Sweep.decade 1e3 1e9 20 in
  let points = Numerics.Sweep.count sweep in
  let nodes = Circuit.Netlist.node_names circ in
  let expected =
    Float.of_int points /. Float.of_int Engine.Health.default_sample_every
  in
  List.iter
    (fun (label, backend) ->
      let health = Engine.Health.meter () in
      ignore
        (Stability.Probe.response_many ~backend ~parallel:`Seq
           ~health:[| health |] probe ~sweep nodes);
      let n = Engine.Health.samples health in
      if Float.abs (Float.of_int n -. expected) > 1. then
        Alcotest.failf "%s: %d health samples over %d points, wanted %.2f +- 1"
          label n points expected)
    [ ("dense", `Dense); ("plan", `Plan); ("kernel", `Kernel) ]


(* A healthy deck must come back [Good]: the shipped RC ladder is as
   well-conditioned as AC analysis gets. *)
let test_quality_good_on_healthy_deck () =
  let circ = Workloads.Ladder.rc ~sections:8 () in
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e6 10 }
  in
  let res = Stability.Analysis.single_node ~options circ "n8" in
  Alcotest.(check string) "healthy deck grades good" "good"
    (Stability.Analysis.quality_string res.Stability.Analysis.quality)

(* A gmin-starved capacitive divider: two femtofarad caps in series,
   no resistive path anywhere. At 1 Hz the cap admittances are ~1e-14
   while the source rows carry unit entries, so every factorisation is
   catastrophically ill-conditioned — the health meter must demote the
   node to [Suspect]. Sampling is forced to every point so the verdict
   does not depend on the global tick phase left by other tests. *)
let test_quality_suspect_on_starved_deck () =
  let circ =
    Circuit.Parser.parse_string
      "* gmin-starved capacitive divider\n\
       V1 n1 0 AC 1\n\
       C1 n1 n2 1e-15\n\
       C2 n2 0 1e-15\n"
  in
  Engine.Health.set_sample_every 1;
  Fun.protect
    ~finally:(fun () ->
      Engine.Health.set_sample_every Engine.Health.default_sample_every)
    (fun () ->
      let options =
        { Stability.Analysis.default_options with
          sweep = Numerics.Sweep.decade 1. 1e3 10;
          refine = false;
          backend = `Plan }
      in
      let res = Stability.Analysis.single_node ~options circ "n2" in
      Alcotest.(check string) "starved deck grades suspect" "suspect"
        (Stability.Analysis.quality_string res.Stability.Analysis.quality))

(* Health is kept per block: a net of a 6-stage chain is graded by the
   factorisations of its own stage, so it reads as the same stage does on
   its own. The whole-system factor of the chain is far worse
   conditioned (worst rcond 1.9e-13 against 9.8e-11 inside the block)
   and graded every net [Suspect]. Sampling every point keeps the
   verdict off the global sample clock's phase. *)
let test_quality_per_block () =
  Engine.Health.set_sample_every 1;
  Fun.protect
    ~finally:(fun () ->
      Engine.Health.set_sample_every Engine.Health.default_sample_every)
    (fun () ->
      let grade stages node =
        let r =
          Stability.Analysis.single_node
            (Workloads.Synth.amp_array ~stages ())
            node
        in
        Stability.Analysis.quality_string r.Stability.Analysis.quality
      in
      let chain = grade 6 "fb_5" and stage = grade 1 "fb_0" in
      Alcotest.(check string) "fb_5 of 6 stages grades as 1 stage" stage
        chain;
      Alcotest.(check bool) "not suspect" true (chain <> "suspect"))

(* ---------- chained amp_array stages ---------- *)

(* A seeded variant of a [stages]-stage Synth.amp_array chain: every
   resistor and capacitor scaled by its own factor within +-2%, as the
   serve_campaign benchmark builds its decks (perfbench/decks.ml), with
   the chain length as a parameter. *)
let amp_variant ~stages ~seed k =
  let st = Random.State.make [| seed; k |] in
  let scale v =
    v *. (1. +. (0.02 *. ((2. *. Random.State.float st 1.) -. 1.)))
  in
  Workloads.Synth.amp_array ~stages ()
  |> Circuit.Netlist.map_devices (function
       | Circuit.Netlist.Resistor r ->
         Circuit.Netlist.Resistor { r with r = scale r.r }
       | Circuit.Netlist.Capacitor c ->
         Circuit.Netlist.Capacitor { c with c = scale c.c }
       | d -> d)
  |> Circuit.Netlist.to_spice

(* Closed-loop poles of stage [s] on its own: a gain A_v driving two RC
   poles under unity feedback, w_n^2 = (1 + A_v) / (tau1 tau2) and
   zeta = (tau1 + tau2) / (2 sqrt ((1 + A_v) tau1 tau2)). *)
let stage_closed_form circ s =
  let value name =
    match Circuit.Netlist.find_device circ (Printf.sprintf "%s_%d" name s) with
    | Some (Circuit.Netlist.Resistor { r; _ }) -> r
    | Some (Circuit.Netlist.Capacitor { c; _ }) -> c
    | Some (Circuit.Netlist.Vcvs { gain; _ }) -> gain
    | _ -> Alcotest.failf "no %s_%d" name s
  in
  let av = value "EAMP" in
  let tau1 = value "R1" *. value "C1" and tau2 = value "R2" *. value "C2" in
  let wn = sqrt ((1. +. av) /. (tau1 *. tau2)) in
  (wn /. (2. *. Float.pi),
   (tau1 +. tau2) /. (2. *. sqrt ((1. +. av) *. tau1 *. tau2)))

let rel a b = Float.abs (a -. b) /. Float.abs b

(* Three variants whose last-stage peak natural-order elimination read
   wrongly (0.5%, 5% and 1.6% off in f_n; the 12-stage one with a
   spurious doublet), on every backend: the dense oracle too solves each
   net against its own block, where natural order over the whole chain
   read 15.981 MHz for the 20-stage variant's 15.896 MHz. Each must
   match its stage's closed form within the campaign gate's tolerances:
   1e-3 on f_n, 2e-2 on zeta (the formula leaves out the 1 MOhm load,
   about 1% of the damping). *)
let test_chained_stages_match_closed_form () =
  List.iter
    (fun ((stages, seed, k), (label, backend)) ->
      let case =
        Printf.sprintf "%d stages, seed %d, variant %d, %s" stages seed k
          label
      in
      let circ =
        Circuit.Parser.parse_string ~name:"variant"
          (amp_variant ~stages ~seed k)
      in
      let s = stages - 1 in
      let fn, zeta = stage_closed_form circ s in
      let options = { Stability.Analysis.default_options with backend } in
      let r =
        Stability.Analysis.single_node ~options circ
          (Workloads.Synth.amp_stage_out s)
      in
      match r.Stability.Analysis.dominant with
      | None -> Alcotest.failf "%s: no dominant peak" case
      | Some d ->
        let f = d.Stability.Peaks.freq in
        if rel f fn > 1e-3 then
          Alcotest.failf "%s: f_n %.6g Hz, closed form %.6g Hz" case f fn;
        (match d.Stability.Peaks.zeta with
         | Some z when rel z zeta <= 2e-2 -> ()
         | Some z -> Alcotest.failf "%s: zeta %.5g, closed form %.5g" case z zeta
         | None -> Alcotest.failf "%s: no zeta" case))
    (List.concat_map
       (fun variant ->
         List.map
           (fun backend -> (variant, backend))
           [ ("dense", `Dense); ("plan", `Plan); ("kernel", `Kernel) ])
       [ (20, 4, 119); (12, 2, 97); (8, 1, 172) ])

(* The exact poles of a chain, block by block: every stage is a stable
   pair driven one way through a unity buffer, so the chain is stable
   and holds one pair per stage at that stage's closed form. The
   whole-system eigen-solve called the 20- and 40-stage chains
   unstable. *)
let test_chain_poles_per_block () =
  List.iter
    (fun stages ->
      let circ = Workloads.Synth.amp_array ~stages () in
      let poles = Engine.Poles.of_circuit circ in
      Alcotest.(check bool)
        (Printf.sprintf "%d stages stable" stages)
        true
        (Engine.Poles.is_stable poles);
      let pairs =
        List.map
          (fun (p : Engine.Poles.pole) -> (p.freq_hz, p.zeta))
          (Engine.Poles.complex_pairs poles)
      in
      let expected =
        List.sort compare (List.init stages (stage_closed_form circ))
      in
      Alcotest.(check int)
        (Printf.sprintf "%d stages: one pair per stage" stages)
        stages (List.length pairs);
      List.iter2
        (fun (f, z) (fn, zeta) ->
          if rel f fn > 1e-3 || rel z zeta > 2e-2 then
            Alcotest.failf
              "%d stages: pair %.6g Hz / zeta %.5g, closed form %.6g Hz / %.5g"
              stages f z fn zeta)
        pairs expected)
    [ 8; 20; 40 ]

(* ---------- strongly connected blocks ---------- *)

let block_sizes circ =
  let b = (Stability.Probe.prepare circ).Stability.Probe.blocks in
  List.init (Engine.Blocks.count b) (Engine.Blocks.size b)

(* The partition the probes run on: circuits whose every unknown reaches
   every other are one block (and their plan is the whole-system plan,
   bit for bit); a chain of n stages driven one way through unity
   buffers is one block per stage plus the input source's. *)
let test_block_partition () =
  List.iter
    (fun (name, circ) ->
      let probe = Stability.Probe.prepare circ in
      Alcotest.(check (list int))
        (name ^ ": one block")
        [ probe.Stability.Probe.mna.Engine.Mna.size ]
        (block_sizes circ);
      let sweep = Numerics.Sweep.decade 1e3 1e9 10 in
      let plans = Stability.Probe.plan probe ~sweep in
      match Engine.Ac_plan.count plans with
      | 1 ->
        let plan = Engine.Ac_plan.get plans 0 in
        let whole =
          Engine.Ac_plan.compile
            ~omega_ref:(Engine.Ac_plan.omega_ref (Numerics.Sweep.points sweep))
            ~op:probe.Stability.Probe.op probe.Stability.Probe.mna
        in
        Alcotest.(check bool)
          (name ^ ": block plan = whole-system plan")
          true
          (Engine.Ac_plan.skeleton plan = Engine.Ac_plan.skeleton whole)
      | n -> Alcotest.failf "%s: %d plans" name n)
    [ ("op-amp", Workloads.Opamp_2mhz.buffer ());
      ("rc_ladder_20", Workloads.Ladder.rc ~sections:20 ());
      ("bias cell", Workloads.Bias_zero_tc.cell ()) ];
  List.iter
    (fun stages ->
      let sizes = block_sizes (Workloads.Synth.amp_array ~stages ()) in
      Alcotest.(check int)
        (Printf.sprintf "amp_array %d: n + 1 blocks" stages)
        (stages + 1) (List.length sizes);
      Alcotest.(check bool)
        (Printf.sprintf "amp_array %d: blocks of at most 7" stages)
        true
        (List.for_all (fun n -> n <= 7) sizes))
    [ 1; 6; 20 ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "stability"
    [ ("probe",
       [ Alcotest.test_case "fast path = netlist path" `Quick
           test_probe_paths_agree;
         Alcotest.test_case "many = single" `Quick
           test_probe_many_matches_single;
         Alcotest.test_case "ground rejected" `Quick
           test_probe_rejects_ground;
         Alcotest.test_case "dense = plan backend" `Quick
           test_probe_backends_agree;
         Alcotest.test_case "parallel = sequential" `Quick
           test_probe_parallel_agrees ]);
      ("single-node",
       [ Alcotest.test_case "rlc tank estimates" `Quick
           test_rlc_tank_estimates;
         Alcotest.test_case "complex zero positive peak" `Quick
           test_complex_zero_positive_peak;
         Alcotest.test_case "sallen-key q" `Quick test_sallen_key_q;
         Alcotest.test_case "shoulder suppression" `Quick
           test_shoulders_suppressed;
         Alcotest.test_case "end-of-range notice" `Quick
           test_end_of_range_notice;
         Alcotest.test_case "zoom refinement" `Quick
           test_refinement_improves_peak ]);
      qsuite "single-node-props" [ prop_rlc_random ];
      ("all-nodes",
       [ Alcotest.test_case "loop clustering" `Quick
           test_all_nodes_rlc_cluster;
         Alcotest.test_case "one loop per block" `Quick
           test_chain_loop_per_block;
         Alcotest.test_case "report format" `Quick test_report_format;
         Alcotest.test_case "annotation" `Quick test_annotation ]);
      ("degraded",
       [ Alcotest.test_case "clamped response completes" `Quick
           test_plot_degraded_completes;
         Alcotest.test_case "value_at range handling" `Quick
           test_plot_value_at_range;
         Alcotest.test_case "reports flag degradation" `Quick
           test_report_flags_degraded ]);
      ("health",
       [ Alcotest.test_case "healthy deck grades good" `Quick
           test_quality_good_on_healthy_deck;
         Alcotest.test_case "gmin-starved deck grades suspect" `Quick
           test_quality_suspect_on_starved_deck;
         Alcotest.test_case "P/16 samples on every backend" `Quick
           test_health_sample_count;
         Alcotest.test_case "chain net graded by its block" `Quick
           test_quality_per_block ]);
      ("blocks",
       [ Alcotest.test_case "pencil partition" `Quick test_block_partition ]);
      ("ac-plan",
       [ Alcotest.test_case "backends agree on shipped deck" `Quick
           test_all_nodes_backends_agree;
         Alcotest.test_case "factorisation counters" `Quick
           test_plan_factorisation_counts ]);
      ("kernel",
       [ Alcotest.test_case "shipped decks bit-identical to plan" `Quick
           test_kernel_bits_shipped_decks;
         QCheck_alcotest.to_alcotest prop_kernel_bits_synth;
         Alcotest.test_case "parallel = sequential, bit for bit" `Quick
           test_kernel_seq_par_identical;
         Alcotest.test_case "compile/point counter budget" `Quick
           test_kernel_counter_budget;
         Alcotest.test_case "sweep allocation bounded per value" `Quick
           test_kernel_sweep_allocation ]);
      ("cross-validation",
       [ Alcotest.test_case "matches exact TF poles" `Quick
           test_cross_validation_with_tf;
         Alcotest.test_case "chained stages match closed form" `Quick
           test_chained_stages_match_closed_form;
         Alcotest.test_case "chain poles per block" `Quick
           test_chain_poles_per_block ]);
      ("limitations",
       [ Alcotest.test_case "RHP poles look stable in the plot" `Quick
           test_rhp_poles_look_stable_in_the_plot ]);
      ("invariants",
       [ Alcotest.test_case "reciprocity" `Quick test_reciprocity;
         Alcotest.test_case "transient ring frequency" `Slow
           test_transient_ring_frequency_matches_plot ]) ]
