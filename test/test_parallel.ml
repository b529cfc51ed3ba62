(* The persistent worker pool: scheduling semantics, exception
   propagation, nested submission, and the determinism + plan-reuse
   contracts of the parallel stability pipeline. *)

let with_jobs n f =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs saved) f

(* The pool clamps to the core count, so on a small CI machine [-j 4]
   runs inline and never exercises worker domains. Forcing
   oversubscription turns the real scheduler back on — domains, the
   shared chunk cursor, sleeps and wake-ups — whatever the hardware. *)
let with_real_workers n f =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs n;
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.set_jobs saved;
      Parallel.Pool.set_oversubscribe false;
      Parallel.Pool.shutdown ())
    f

(* ---------- pool primitives ---------- *)

let test_pool_empty_and_tiny () =
  with_jobs 2 (fun () ->
      Alcotest.(check (list int)) "empty list" []
        (Parallel.Pool.map_list (fun x -> x) []);
      Alcotest.(check (list int)) "singleton runs inline" [ 42 ]
        (Parallel.Pool.map_list (fun x -> x * 2) [ 21 ]);
      Parallel.Pool.parallel_for ~n:0 (fun _ -> assert false))

let test_pool_order_preserved () =
  with_jobs 2 (fun () ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int)) "map_list order"
        (List.map (fun x -> x * x) xs)
        (Parallel.Pool.map_list ~chunk:1 (fun x -> x * x) xs);
      let a = Array.init 257 (fun i -> i - 128) in
      Alcotest.(check (array int)) "map_array order"
        (Array.map (fun x -> (3 * x) + 1) a)
        (Parallel.Pool.map_array (fun x -> (3 * x) + 1) a))

let test_pool_each_index_once () =
  with_jobs 2 (fun () ->
      let n = 50 in
      (* Each task touches only its own cell, so no synchronisation is
         needed to count executions. *)
      let hits = Array.make n 0 in
      Parallel.Pool.parallel_for ~chunk:1 ~n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "every index exactly once"
        (Array.make n 1) hits)

let test_pool_exception_propagation () =
  with_jobs 2 (fun () ->
      Alcotest.check_raises "body exception reaches submitter"
        (Failure "boom 37") (fun () ->
          Parallel.Pool.parallel_for ~chunk:1 ~n:64 (fun i ->
              if i = 37 then failwith "boom 37"));
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool usable after failure" [ 0; 1; 4 ]
        (Parallel.Pool.map_list (fun x -> x * x) [ 0; 1; 2 ]))

let test_pool_nested_runs_inline () =
  with_jobs 2 (fun () ->
      let outer = 4 and inner = 8 in
      let sums = Array.make outer 0 in
      (* Recorded per index and checked on the submitter: [Format], and
         so [Alcotest.check], is not safe on two domains at once. *)
      let in_pool = Array.make outer false in
      Parallel.Pool.parallel_for ~chunk:1 ~n:outer (fun o ->
          in_pool.(o) <- Parallel.Pool.in_worker ();
          (* Inner submission from a pool task must run inline (no
             oversubscription, no deadlock) and still compute. *)
          Parallel.Pool.parallel_for ~n:inner (fun i ->
              sums.(o) <- sums.(o) + i));
      Alcotest.(check (array bool)) "body sees worker context"
        (Array.make outer true) in_pool;
      Alcotest.(check (array int)) "nested loops computed"
        (Array.make outer (inner * (inner - 1) / 2))
        sums);
  Alcotest.(check bool) "not a worker outside submissions" false
    (Parallel.Pool.in_worker ())

let test_pool_set_jobs () =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_jobs 3;
  Alcotest.(check int) "set_jobs 3" 3 (Parallel.Pool.jobs ());
  Parallel.Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Parallel.Pool.jobs ());
  Alcotest.(check (list int)) "jobs=1 runs inline" [ 1; 2; 3 ]
    (Parallel.Pool.map_list (fun x -> x + 1) [ 0; 1; 2 ]);
  Parallel.Pool.set_jobs saved

let test_pool_effective_jobs () =
  with_jobs 4 (fun () ->
      let cores = Domain.recommended_domain_count () in
      Alcotest.(check int) "clamped to the hardware"
        (Int.min 4 (Int.max 1 cores))
        (Parallel.Pool.effective_jobs ());
      Alcotest.(check int) "requested jobs still reported" 4
        (Parallel.Pool.jobs ());
      Parallel.Pool.set_oversubscribe true;
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.set_oversubscribe false)
        (fun () ->
          Alcotest.(check int) "oversubscription honours the request" 4
            (Parallel.Pool.effective_jobs ())))

(* The same scheduling contracts as above, but with worker domains
   forced into existence (oversubscribed past the core count if need
   be). These tests check outcomes only, never timing: a lost wake-up
   shows as a hang, a double or missed claim as a wrong count. *)
let test_pool_real_workers () =
  with_real_workers 4 (fun () ->
      let n = 500 in
      let chunks0 =
        match Obs.Counter.find "pool.chunks" with
        | Some c -> Obs.Counter.value c
        | None -> Alcotest.fail "pool.chunks counter missing"
      in
      let hits = Array.make n 0 in
      Parallel.Pool.parallel_for ~chunk:1 ~n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each index exactly once on domains"
        (Array.make n 1) hits;
      let chunks1 =
        match Obs.Counter.find "pool.chunks" with
        | Some c -> Obs.Counter.value c
        | None -> assert false
      in
      Alcotest.(check int) "every chunk executed exactly once" n
        (chunks1 - chunks0);
      let xs = List.init 200 Fun.id in
      Alcotest.(check (list int)) "order preserved on domains"
        (List.map (fun x -> x * 7) xs)
        (Parallel.Pool.map_list ~chunk:1 (fun x -> x * 7) xs);
      Alcotest.check_raises "exception crosses domains"
        (Failure "boom 11") (fun () ->
          Parallel.Pool.parallel_for ~chunk:1 ~n:64 (fun i ->
              if i = 11 then failwith "boom 11"));
      Alcotest.(check (list int)) "pool survives the failure" [ 0; 2; 4 ]
        (Parallel.Pool.map_list (fun x -> 2 * x) [ 0; 1; 2 ]);
      (* A failed batch leaves nothing behind: every later batch, many
         chunks wide, still computes every index. *)
      let a = Array.init 500 Fun.id in
      for round = 1 to 20 do
        (try
           Parallel.Pool.parallel_for ~chunk:1 ~n:64 (fun i ->
               if i mod 16 = round mod 16 then failwith "boom")
         with Failure _ -> ());
        Alcotest.(check (array int))
          (Printf.sprintf "batch after failure %d" round)
          (Array.map (fun x -> x + round) a)
          (Parallel.Pool.map_array ~chunk:1 (fun x -> x + round) a)
      done)

(* Two spawned domains and the main domain submit at once. Whichever
   publishes first gets the workers; the others run inline. Each must
   get its own answers either way. *)
let test_pool_concurrent_submitters () =
  with_real_workers 4 (fun () ->
      let input k = Array.init 300 (fun i -> (1000 * k) + i) in
      let f k x = (x * x) + k in
      let submit k () =
        List.init 20 (fun _ -> Parallel.Pool.map_array ~chunk:1 (f k) (input k))
      in
      let others = List.map (fun k -> Domain.spawn (submit k)) [ 1; 2 ] in
      let mine = submit 0 () in
      let theirs = List.map Domain.join others in
      List.iteri
        (fun k results ->
          List.iter
            (Alcotest.(check (array int))
               (Printf.sprintf "submitter %d" k)
               (Array.map (f k) (input k)))
            results)
        (mine :: theirs))

(* Back-to-back tiny batches: workers must wake for every new batch and
   the submitter for every last chunk. *)
let test_pool_back_to_back () =
  with_real_workers 4 (fun () ->
      let bad = ref 0 in
      for k = 0 to 4999 do
        let n = 2 + (k mod 7) in
        let hits = Array.make n 0 in
        Parallel.Pool.parallel_for ~chunk:1 ~n (fun i ->
            hits.(i) <- hits.(i) + 1);
        if hits <> Array.make n 1 then incr bad
      done;
      Alcotest.(check int) "every index of every batch exactly once" 0 !bad)

(* [set_jobs] between batches stops the workers; the next submission
   restarts the pool at the new size, or runs inline at one job. *)
let test_pool_resize () =
  with_real_workers 2 (fun () ->
      let xs = List.init 100 Fun.id in
      List.iter
        (fun j ->
          Parallel.Pool.set_jobs j;
          let pooled0 = Obs.Counter.value (Obs.Counter.make "pool.jobs") in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs %d" j)
            (List.map (fun x -> x + j) xs)
            (Parallel.Pool.map_list ~chunk:1 (fun x -> x + j) xs);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d pooled iff more than one" j)
            (if j > 1 then 1 else 0)
            (Obs.Counter.value (Obs.Counter.make "pool.jobs") - pooled0))
        [ 2; 4; 1; 3; 4; 2 ])

(* ---------- environment knob grammar ---------- *)

(* The exact strings ACSTAB_JOBS accepts, pinned via the exported pure
   parser — no environment mutation, no respawned processes. Anything
   rejected here makes the reader warn and fall back instead of
   silently misconfiguring the pool. *)
let test_env_parse_grammar () =
  let jobs = Alcotest.(option int) in
  Alcotest.check jobs "plain integer" (Some 4) (Parallel.Pool.parse_jobs "4");
  Alcotest.check jobs "surrounding whitespace trimmed" (Some 8)
    (Parallel.Pool.parse_jobs " 8 ");
  Alcotest.check jobs "one is the floor" (Some 1)
    (Parallel.Pool.parse_jobs "1");
  Alcotest.check jobs "zero rejected, not clamped" None
    (Parallel.Pool.parse_jobs "0");
  Alcotest.check jobs "negative rejected" None
    (Parallel.Pool.parse_jobs "-2");
  Alcotest.check jobs "non-numeric rejected" None
    (Parallel.Pool.parse_jobs "many");
  Alcotest.check jobs "empty rejected" None (Parallel.Pool.parse_jobs "");
  Alcotest.check jobs "float rejected for an integer knob" None
    (Parallel.Pool.parse_jobs "2.5")

(* ---------- the `Auto seq/par decision ---------- *)

let test_auto_decision () =
  (* Shapes of a real tiny deck and a real >= 1k-unknown synthetic mesh:
     the tiny one must never clear the volume cutoff, the large one
     always does. *)
  let tiny_work = Stability.Probe.estimated_work ~unknowns:15 ~points:61 ~nets:1 in
  let mesh = Workloads.Synth.rc_mesh ~rows:32 ~cols:32 () in
  let unknowns = (Engine.Mna.compile mesh).Engine.Mna.size in
  let large_work =
    Stability.Probe.estimated_work ~unknowns ~points:61 ~nets:4
  in
  Alcotest.(check bool) "tiny deck under the cutoff" true
    (tiny_work < Stability.Probe.auto_threshold);
  Alcotest.(check bool) "mesh workload over the cutoff" true
    (large_work >= Stability.Probe.auto_threshold);
  (* Sequential pool => `Auto must be sequential even for huge sweeps. *)
  with_jobs 1 (fun () ->
      Alcotest.(check bool) "no workers -> seq" false
        (Stability.Probe.auto_decision ~unknowns ~points:61 ~nets:4));
  (* With jobs requested, the decision follows the *effective* count:
     never "parallel" into a pool the core clamp will run inline. *)
  with_jobs 4 (fun () ->
      Alcotest.(check bool) "decision tracks effective_jobs"
        (Parallel.Pool.effective_jobs () > 1)
        (Stability.Probe.auto_decision ~unknowns ~points:61 ~nets:4);
      Alcotest.(check bool) "tiny deck stays sequential" false
        (Stability.Probe.auto_decision ~unknowns:15 ~points:61 ~nets:1));
  (* Real workers available => the large deck must go parallel. *)
  with_real_workers 4 (fun () ->
      Alcotest.(check bool) "workers + volume -> par" true
        (Stability.Probe.auto_decision ~unknowns ~points:61 ~nets:4);
      Alcotest.(check bool) "tiny deck still seq" false
        (Stability.Probe.auto_decision ~unknowns:15 ~points:61 ~nets:1))

(* ---------- determinism of the stability pipeline ---------- *)

let quick_options =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e3 1e9 10;
    refine_per_decade = 100 }

let check_deterministic name circ =
  let probe = Stability.Probe.prepare circ in
  let seq =
    Stability.Analysis.all_nodes_prepared
      ~options:{ quick_options with parallel = `Seq } probe
  in
  with_jobs 2 (fun () ->
      let par =
        Stability.Analysis.all_nodes_prepared
          ~options:{ quick_options with parallel = `Par } probe
      in
      (* Bit-identical, not merely close: pooled point-solves write
         disjoint cells with the same arithmetic as the sequential
         loop. *)
      Alcotest.(check bool)
        (name ^ ": pooled all-nodes equals sequential exactly") true
        (seq = par))

let test_determinism_opamp () =
  check_deterministic "opamp_2mhz" (Workloads.Opamp_2mhz.buffer ())

let test_determinism_nmc () =
  check_deterministic "nmc_amp" (Workloads.Nmc_amp.buffer ())

(* ---------- one symbolic analysis per run (plan reuse) ---------- *)

let test_one_symbolic_per_run () =
  let probe = Stability.Probe.prepare (Workloads.Opamp_2mhz.buffer ()) in
  let before = Engine.Ac_plan.totals () in
  ignore (Stability.Analysis.all_nodes_prepared ~options:quick_options probe);
  let after = Engine.Ac_plan.totals () in
  Alcotest.(check int)
    "coarse + every zoom window share one plan compilation" 1
    (after.Engine.Ac_plan.symbolic - before.Engine.Ac_plan.symbolic);
  Alcotest.(check int) "no pivot-order fallbacks" 0
    (after.Engine.Ac_plan.fallback - before.Engine.Ac_plan.fallback);
  let before = Engine.Ac_plan.totals () in
  ignore
    (Stability.Analysis.single_node_prepared ~options:quick_options probe
       Workloads.Opamp_2mhz.node_out);
  let after = Engine.Ac_plan.totals () in
  Alcotest.(check int) "single-node run compiles once too" 1
    (after.Engine.Ac_plan.symbolic - before.Engine.Ac_plan.symbolic)

let () =
  Fun.protect ~finally:Parallel.Pool.shutdown (fun () ->
      Alcotest.run "parallel"
        [ ("pool",
           [ Alcotest.test_case "empty and tiny inputs" `Quick
               test_pool_empty_and_tiny;
             Alcotest.test_case "order preserved" `Quick
               test_pool_order_preserved;
             Alcotest.test_case "each index exactly once" `Quick
               test_pool_each_index_once;
             Alcotest.test_case "exception propagation" `Quick
               test_pool_exception_propagation;
             Alcotest.test_case "nested submission inline" `Quick
               test_pool_nested_runs_inline;
             Alcotest.test_case "set_jobs" `Quick test_pool_set_jobs;
             Alcotest.test_case "effective_jobs clamp" `Quick
               test_pool_effective_jobs;
             Alcotest.test_case "real worker domains" `Quick
               test_pool_real_workers;
             Alcotest.test_case "concurrent submitters" `Quick
               test_pool_concurrent_submitters;
             Alcotest.test_case "back-to-back batches" `Quick
               test_pool_back_to_back;
             Alcotest.test_case "resize between batches" `Quick
               test_pool_resize;
             Alcotest.test_case "env knob grammar" `Quick
               test_env_parse_grammar ]);
          ("auto",
           [ Alcotest.test_case "seq/par decision" `Quick
               test_auto_decision ]);
          ("determinism",
           [ Alcotest.test_case "opamp_2mhz seq = par" `Quick
               test_determinism_opamp;
             Alcotest.test_case "nmc_amp seq = par" `Quick
               test_determinism_nmc ]);
          ("plan reuse",
           [ Alcotest.test_case "one symbolic per run" `Quick
               test_one_symbolic_per_run ]) ])
