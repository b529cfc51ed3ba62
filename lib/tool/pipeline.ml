(* The canonical analysis run, as a value.

   Every front end — each CLI subcommand, the serve daemon, OCEAN
   scripts — used to re-derive the same imperative sequence: read the
   deck, gate it on lint, find the operating point, compile the solve
   plan, sweep, report, write the manifest. This module owns that
   sequence once, as [load] (deck -> gated circuit) and [analyze]
   (gated circuit -> results + manifest), with failures as data
   ([failure] carries the exit-code contract) instead of [exit] calls
   buried in command bodies.

   Both halves memoize through {!Cache}. [load] keys the parsed deck by
   its origin (file or inline, and the name) and its exact text with
   every .include expanded, and keeps the text's SHA-256 fingerprint
   beside the parsed deck and its lint findings, so the digest is
   computed once per entry; it re-applies the gate to the findings on
   every request. Every other family is keyed by that fingerprint, the
   origin and the options in force: [analyze] keeps the prepared probe
   (DC operating point and the pencil's blocks), the plans (one
   symbolic analysis per probed block, compiled when a request first
   probes it), the kernels and the complete result set with its
   manifest.
   A warm repeat of the same request performs no digest, no parse, no
   lint pass, no graph build, zero DC solves and zero symbolic analyses
   ([deck.digests] counts the digests); a request that only changes the
   sweep or the probed nodes still reuses the operating point and the
   plan. The outcome hands the daemon the result entry itself, so its
   answer text is stored from the entry's first hit
   ({!Cache.rendering}) rather than rendered once per answer. *)

type deck =
  | Deck_file of string
  | Deck_text of { name : string; text : string }
  | Deck_circuit of { name : string; circ : Circuit.Netlist.t }

type lint_policy = { no_lint : bool; strict : bool }

let default_lint_policy = { no_lint = false; strict = false }

type loaded = {
  deck_name : string;
  deck_text : string;
  sha256 : string;
  circ : Circuit.Netlist.t;
  findings : Lint.Rule.finding list;
}

type failure =
  | Parse_failed of { message : string }
  | Usage_failed of { message : string }
  | Lint_blocked of { findings : Lint.Rule.finding list }
  | Analysis_failed of {
      message : string;
      likely_cause : Lint.Rule.finding list;
    }

(* The CLI's exit-code contract: 2 bad input, 3 analysis failure,
   4 lint gate. (1 is cmdliner usage, 5 is `acstab diff` regressions.) *)
let exit_code = function
  | Parse_failed _ | Usage_failed _ -> 2
  | Analysis_failed _ -> 3
  | Lint_blocked _ -> 4

let failure_message = function
  | Parse_failed { message }
  | Usage_failed { message }
  | Analysis_failed { message; _ } -> message
  | Lint_blocked _ ->
    "lint: blocking findings; fix the netlist or pass --no-lint to force \
     the run"

(* ---- load: read and fingerprint, then parse + lint once per deck ---- *)

let blocking policy (f : Lint.Rule.finding) =
  match f.severity with
  | Lint.Rule.Error -> true
  | Lint.Rule.Warning -> policy.strict
  | Lint.Rule.Info -> false

let cache_or_global = function Some c -> c | None -> Cache.global ()

let bounds_fingerprint (b : Staticanalysis.Cycles.bounds) =
  Printf.sprintf "len=%d,cycles=%d" b.max_len b.max_cycles

(* [key] is the deck's key ([deck_key] below), which every family's key
   starts from. *)
let sfg_report c ~key ~bounds circ =
  let key = key ^ "|sfg|" ^ bounds_fingerprint bounds in
  Cache.sfg c ~key (fun () -> Staticanalysis.Report.analyze ~bounds circ)

(* One lint pass at the default configuration. Its graph-powered rules
   read the deck's [sfg] report at default bounds — the report they
   would otherwise build for themselves — so linting adds no graph
   build to a run that needs the report anyway. *)
let run_lint c ~key circ =
  Obs.Span.with_ "lint" (fun () ->
      Lint.Runner.run
        ~static:
          (lazy
            (fst
               (sfg_report c ~key
                  ~bounds:Staticanalysis.Report.default_bounds circ)))
        circ)

let entry_findings c ~key (e : Cache.deck_entry) =
  match Atomic.get e.lint with
  | Some findings -> findings
  | None ->
    let findings = run_lint c ~key e.circ in
    Atomic.set e.lint (Some findings);
    findings

(* Every family but [deck] keys a deck by its fingerprint plus the two
   parse inputs that are not in the text — file or inline (a file's
   first line is always its title), and the name that becomes the title
   when the text has none. An in-memory design has an origin of its
   own: it was never parsed, so it shares nothing with a deck of the
   same text. *)
let deck_key ~sha256 origin = sha256 ^ "|deck|" ^ origin
let file_origin path = "file:" ^ Filename.basename path
let text_origin name = "text:" ^ name
let circuit_origin name = "circuit:" ^ name

(* The [deck] family's key: the origin and the exact text, the origin's
   length first so that no other origin and text spell the same key.
   Finer than the digest, and found without computing it. One copy of
   the text. *)
let text_key origin text =
  String.concat "" [ string_of_int (String.length origin); ":"; origin; text ]

let digests = Obs.Counter.make "deck.digests"

let fingerprint text =
  Obs.Counter.incr digests;
  Sha256.digest text

(* The family key and deck entry each loaded circuit came from, found by
   the circuit's identity: [loaded] itself carries only the digest and
   the name, and a file and an inline deck with the same text and name
   parse differently. A circuit [load] did not produce (a [loaded]
   assembled by hand) keys as the inline deck of its name and has no
   entry. Weak in the circuit, so the table holds nothing the caches
   have let go of. *)
module Origins = Ephemeron.K1.Make (struct
  type t = Circuit.Netlist.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let origins = Origins.create 64
let origins_lock = Mutex.create ()

let remember key (entry : Cache.deck_entry) =
  Mutex.protect origins_lock (fun () ->
      Origins.replace origins entry.circ (key, entry))

let origin_of loaded =
  Mutex.protect origins_lock (fun () -> Origins.find_opt origins loaded.circ)

let key_of loaded =
  match origin_of loaded with
  | Some (key, _) -> key
  | None -> deck_key ~sha256:loaded.sha256 (text_origin loaded.deck_name)

let parsed c ~origin text parse =
  let entry, _ =
    Cache.deck c ~key:(text_key origin text) (fun () ->
        let circ = Obs.Span.with_ "parse" parse in
        let sha256 = fingerprint text in
        let entry = { Cache.circ; sha256; lint = Atomic.make None } in
        remember (deck_key ~sha256 origin) entry;
        entry)
  in
  (text, deck_key ~sha256:entry.sha256 origin, entry)

let load ?cache ?(policy = default_lint_policy) deck =
  let c = cache_or_global cache in
  let deck_name =
    match deck with
    | Deck_file path -> path
    | Deck_text { name; _ } | Deck_circuit { name; _ } -> name
  in
  match
    (match deck with
     | Deck_file path ->
       (* One read: the bytes fingerprinted are the bytes parsed. *)
       let text =
         Circuit.Parser.expand_includes ~base_dir:(Filename.dirname path)
           (Circuit.Parser.read_file path)
       in
       parsed c ~origin:(file_origin path) text (fun () ->
           Circuit.Parser.parse_file_text path text)
     | Deck_text { name; text } ->
       let text = Circuit.Parser.expand_includes text in
       parsed c ~origin:(text_origin name) text (fun () ->
           Circuit.Parser.parse_string ~name text)
     | Deck_circuit { name; circ } ->
       (* Fingerprint the in-memory design through its canonical SPICE
          rendering (temperature included), so an OCEAN session's
          repeated runs hit the same cache rows. There is nothing to
          parse, so nothing goes in the [deck] family: the caller's
          circuit is the one analyzed, and the entry made for it here
          (its digest and lint findings) lives as long as it does. *)
       let text = Circuit.Netlist.to_spice circ in
       let sha256 = fingerprint text in
       let key = deck_key ~sha256 (circuit_origin name) in
       let entry = { Cache.circ; sha256; lint = Atomic.make None } in
       remember key entry;
       (text, key, entry))
  with
  | exception Circuit.Parser.Parse_error { line; message } ->
    Error
      (Parse_failed
         { message = Printf.sprintf "%s:%d: %s" deck_name line message })
  | exception Sys_error m -> Error (Parse_failed { message = m })
  | deck_text, key, entry ->
    let findings =
      if policy.no_lint then [] else entry_findings c ~key entry
    in
    if List.exists (blocking policy) findings then
      Error (Lint_blocked { findings })
    else
      Ok { deck_name; deck_text; sha256 = entry.sha256; circ = entry.circ;
           findings }

let lint_findings ?cache loaded =
  let c = cache_or_global cache in
  match origin_of loaded with
  | Some (key, entry) -> entry_findings c ~key entry
  | None -> run_lint c ~key:(key_of loaded) loaded.circ

(* ---- guard: engine exceptions -> failure values ---- *)

(* Translate a Singular exception into the lint findings that predicted
   it, so the user sees net/branch names instead of a matrix index. *)
let singular_failure ~what circ index =
  let message =
    match Engine.Mna.compile circ with
    | mna ->
      Printf.sprintf "%s: singular matrix at %s" what
        (Engine.Mna.unknown_name mna index)
    | exception _ -> Printf.sprintf "%s: singular matrix (pivot %d)" what index
  in
  Analysis_failed
    { message; likely_cause = Lint.Runner.explain_singular ~index circ }

let guard loaded f =
  match f () with
  | v -> Ok v
  | exception Engine.Dcop.No_convergence m ->
    Error
      (Analysis_failed
         { message = Printf.sprintf "DC convergence failure: %s" m;
           likely_cause = Lint.Runner.explain_singular loaded.circ })
  | exception Numerics.Dense.Singular k ->
    Error (singular_failure ~what:"dense factorization failed" loaded.circ k)
  | exception Numerics.Sparse.Singular k ->
    Error (singular_failure ~what:"sparse factorization failed" loaded.circ k)
  | exception Engine.Mna.Compile_error m ->
    Error (Usage_failed { message = Printf.sprintf "elaboration error: %s" m })
  | exception Invalid_argument m ->
    (* Unknown or ground nets (Ac.v, Probe.response_many) are user input
       errors, not internal failures. *)
    Error (Usage_failed { message = Printf.sprintf "error: %s" m })

(* ---- static signal-flow report (cached per deck + bounds) ---- *)

let static_report ?cache ?(bounds = Staticanalysis.Report.default_bounds)
    loaded =
  sfg_report (cache_or_global cache) ~key:(key_of loaded) ~bounds
    loaded.circ

(* ---- manifest emission (the one helper every mode shares) ---- *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let manifest_of ?cache loaded ~options ~results ~wall_s ~cpu_s =
  (* The lint findings go in as their JSON report, independent of the
     gate policy: a --no-lint run still records what the linter would
     have said. Likewise the structural loops section: it records what
     the deck's signal-flow graph says regardless of the analysis mode,
     so `acstab diff` can gate on vanished loops. *)
  let lint =
    Lint_report.json ~file:loaded.deck_name (lint_findings ?cache loaded)
  in
  let loops = Loops_report.section (fst (static_report ?cache loaded)) in
  Manifest.build ~deck_file:loaded.deck_name ~deck_sha256:loaded.sha256
    ~circ:loaded.circ ~options ~lint ~loops ~results ~wall_s ~cpu_s ()

(* ---- analyze: the cached stability run ---- *)

type analysis =
  | Single_node of Circuit.Netlist.node
  | All_nodes of Circuit.Netlist.node list option
  | Auto_nodes

type outcome = {
  loaded : loaded;
  analysis : analysis;
  options : Stability.Analysis.options;
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
  wall_s : float;
  cpu_s : float;
  cache : [ `Hit | `Miss ];
  stored : Cache.stored_result;
}

(* The manifest's spelling of a sweep that is not a plain decade. *)
let sweep_fingerprint = function
  | Numerics.Sweep.Dec { start; stop; per_decade } ->
    Printf.sprintf "dec:%.17g:%.17g:%d" start stop per_decade
  | Numerics.Sweep.Lin { start; stop; points } ->
    Printf.sprintf "lin:%.17g:%.17g:%d" start stop points
  | Numerics.Sweep.List pts ->
    "list:"
    ^ String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%.17g") pts))

(* Option keys are exact and Printf-free: every field is one 8-byte
   slot, a float's IEEE bits or an int, at a fixed place, so two option
   values that differ in any bit of any field get different keys. *)
let put_int b slot n = Bytes.set_int64_le b (8 * slot) (Int64.of_int n)

let put_float b slot x =
  Bytes.set_int64_le b (8 * slot) (Int64.bits_of_float x)

let dc_slots = 6

let put_dc b slot (o : Engine.Dcop.options) =
  put_float b slot o.gmin;
  put_float b (slot + 1) o.reltol;
  put_float b (slot + 2) o.vntol;
  put_float b (slot + 3) o.abstol;
  put_int b (slot + 4) o.max_iter;
  put_float b (slot + 5) o.max_step

let dc_key o =
  let b = Bytes.create (8 * dc_slots) in
  put_dc b 0 o;
  Bytes.unsafe_to_string b

let backend_code = function `Auto -> 0 | `Dense -> 1 | `Plan -> 2 | `Kernel -> 3

(* Everything that can change the numbers goes into the key; [parallel]
   does not (scheduling is bit-identical by contract, and the
   seq-vs-par manifest diff in @health-smoke keeps it honest). The
   sweep comes first, tagged, its point count spelled out for a list;
   then refinement, the peak floor, the DC options, the backend and the
   health sampling period. *)
let options_key (o : Stability.Analysis.options) =
  let sweep_slots =
    match o.sweep with
    | Numerics.Sweep.List pts -> 2 + Array.length pts
    | Numerics.Sweep.Dec _ | Numerics.Sweep.Lin _ -> 4
  in
  (* refine, refine_ratio, refine_per_decade, min_peak, backend and
     the health period take one slot each *)
  let b = Bytes.create (8 * (sweep_slots + 6 + dc_slots)) in
  (match o.sweep with
   | Numerics.Sweep.Dec { start; stop; per_decade } ->
     put_int b 0 0;
     put_float b 1 start;
     put_float b 2 stop;
     put_int b 3 per_decade
   | Numerics.Sweep.Lin { start; stop; points } ->
     put_int b 0 1;
     put_float b 1 start;
     put_float b 2 stop;
     put_int b 3 points
   | Numerics.Sweep.List pts ->
     put_int b 0 2;
     put_int b 1 (Array.length pts);
     Array.iteri (fun k x -> put_float b (2 + k) x) pts);
  let s = sweep_slots in
  put_int b s (Bool.to_int o.refine);
  put_float b (s + 1) o.refine_ratio;
  put_int b (s + 2) o.refine_per_decade;
  put_float b (s + 3) o.min_peak;
  put_dc b (s + 4) o.dc_options;
  put_int b (s + 4 + dc_slots) (backend_code o.backend);
  put_int b (s + 5 + dc_slots) (Engine.Health.sample_every ());
  Bytes.unsafe_to_string b

let analysis_fingerprint = function
  | Single_node n -> "single:" ^ n
  | All_nodes None -> "all"
  | All_nodes (Some ns) -> "all:" ^ String.concat "," ns
  | Auto_nodes -> "auto"

(* Manifest option lines, spelled exactly as the pre-pipeline CLI
   spelled them so manifests stay diff-compatible across the refactor. *)
let manifest_options analysis (o : Stability.Analysis.options) =
  let sweep_opts =
    (match o.sweep with
     | Numerics.Sweep.Dec { start; stop; per_decade } ->
       [ ("fmin", Printf.sprintf "%g" start);
         ("fmax", Printf.sprintf "%g" stop);
         ("ppd", string_of_int per_decade) ]
     | sw -> [ ("sweep", sweep_fingerprint sw) ])
    @ [ ("health_sample", string_of_int (Engine.Health.sample_every ()));
        (* Scheduling cannot change the numbers (it is excluded from the
           cache fingerprint for that reason), but a manifest should
           still explain its own wall-clock: record what was asked for
           and what the pool would actually use. The pool counter
           snapshot (pool.chunks, pool.queue_high_water, per-worker
           busy times, probe.sweeps_par) rides along in the manifest's
           counters section automatically. *)
        ("jobs", string_of_int (Parallel.Pool.jobs ()));
        ("jobs_effective", string_of_int (Parallel.Pool.effective_jobs ()));
        ("parallel",
         match o.parallel with
         | `Auto -> "auto"
         | `Seq -> "seq"
         | `Par -> "par") ]
  in
  match analysis with
  | Single_node n -> ("mode", "single-node") :: ("node", n) :: sweep_opts
  | All_nodes _ -> ("mode", "all-nodes") :: sweep_opts
  | Auto_nodes -> ("mode", "all-nodes") :: ("nodes", "auto") :: sweep_opts

(* The prepared probe and the plan and kernel sets of a deck under these
   options, from [cache] or made there. *)
let prepared cache ~options loaded =
  let op_key =
    key_of loaded ^ "|op|" ^ dc_key options.Stability.Analysis.dc_options
  in
  let plan_key =
    op_key ^ "|plan|"
    ^ string_of_int (backend_code options.Stability.Analysis.backend)
  in
  let probe, _ =
    Cache.op cache ~key:op_key (fun () ->
        Stability.Probe.prepare
          ~dc_options:options.Stability.Analysis.dc_options loaded.circ)
  in
  let plan, _ =
    Cache.plan cache ~key:plan_key (fun () ->
        Stability.Analysis.shared_plan options probe)
  in
  (* The kernel sits one compilation below the plan and is keyed one
     level deeper; consulted only when the options actually select the
     kernel backend, so the family stays empty (and its counters flat)
     on every other path. Warm repeat on the same deck + options =
     zero kernel compiles, which the serve smoke test asserts from the
     [kernel.compiles] counter. *)
  let kernel =
    match options.Stability.Analysis.backend with
    | `Kernel ->
      fst
        (Cache.kernel cache ~key:(plan_key ^ "|kernel") (fun () ->
             Stability.Analysis.shared_kernel options plan))
    | _ -> None
  in
  (probe, plan, kernel)

(* The nets a run of [analysis] probes; [None] is every net. *)
let probed_nets cache loaded = function
  | Single_node node -> Some [ node ]
  | All_nodes nodes -> nodes
  | Auto_nodes ->
    (* Probe only the static report's cover set — every enumerated
       loop stays observed. A loop-free (or all-pinned) deck has an
       empty cover; probing nothing would be useless, so fall back to
       every net. *)
    let report, _ = static_report ~cache loaded in
    (match report.Staticanalysis.Report.cover with
     | [] -> None
     | cover -> Some cover)

let analyze_uncached ?cache ~options loaded analysis =
  let cache = cache_or_global cache in
  let w0 = Unix.gettimeofday () and c0 = cpu_seconds () in
  let probe, plan, kernel = prepared cache ~options loaded in
  let results =
    match analysis with
    | Single_node node ->
      [ Stability.Analysis.single_node_prepared ~options ?plan ?kernel probe
          node ]
    | All_nodes _ | Auto_nodes ->
      Stability.Analysis.all_nodes_prepared ~options
        ?nodes:(probed_nets cache loaded analysis) ?plan ?kernel probe
  in
  let wall_s = Unix.gettimeofday () -. w0
  and cpu_s = cpu_seconds () -. c0 in
  let manifest =
    manifest_of ~cache loaded ~options:(manifest_options analysis options)
      ~results ~wall_s ~cpu_s
  in
  { Cache.results; manifest }

let analyze_exn ?cache ?(options = Stability.Analysis.default_options) loaded
    analysis =
  let c = cache_or_global cache in
  (* The manifest records the deck's name, so the result key adds it
     to the deck key (a file's origin holds only its basename). *)
  let result_key =
    String.concat ""
      [ key_of loaded; "|name:"; loaded.deck_name; "|";
        analysis_fingerprint analysis; "|"; options_key options ]
  in
  let stored, hit =
    Cache.result c ~key:result_key (fun () ->
        Obs.Span.with_ "pipeline.analyze" (fun () ->
            analyze_uncached ~cache:c ~options loaded analysis))
  in
  let entry = stored.Cache.entry in
  (* One structured event per analysis (CLI one-shots with --log get a
     record too, not just the daemon); guarded so runs without a sink
     pay one atomic load, not a field-list allocation. *)
  if Obs.Events.enabled () then
    Obs.Events.emit "pipeline.analyze"
      [ ("deck", Obs.Events.Str loaded.deck_name);
        ("sha256", Obs.Events.Str loaded.sha256);
        ("cache", Obs.Events.Str (if hit then "hit" else "miss"));
        ("wall_ms",
         Obs.Events.Float (entry.Cache.manifest.Manifest.wall_s *. 1e3)) ];
  { loaded; analysis; options; results = entry.Cache.results;
    manifest = entry.Cache.manifest;
    wall_s = entry.Cache.manifest.Manifest.wall_s;
    cpu_s = entry.Cache.manifest.Manifest.cpu_s;
    cache = (if hit then `Hit else `Miss); stored }

let analyze ?cache ?options loaded analysis =
  guard loaded (fun () -> analyze_exn ?cache ?options loaded analysis)

let coarse_plots ?cache (o : outcome) nodes =
  let cache = cache_or_global cache in
  let probe, plan, kernel = prepared cache ~options:o.options o.loaded in
  let swept =
    match probed_nets cache o.loaded o.analysis with
    | Some nets -> nets
    | None ->
      Array.to_list
        (Circuit.Topology.nodes probe.Stability.Probe.mna.Engine.Mna.topo)
  in
  Stability.Analysis.coarse_plots ~options:o.options ?plan ?kernel ~swept
    probe nodes

(* ---- one-step convenience for front ends ---- *)

type request = {
  deck : deck;
  analysis : analysis;
  options : Stability.Analysis.options;
  policy : lint_policy;
}

let request ?(options = Stability.Analysis.default_options)
    ?(policy = default_lint_policy) deck analysis =
  { deck; analysis; options; policy }

let run ?cache { deck; analysis; options; policy } =
  match load ?cache ~policy deck with
  | Error f -> Error f
  | Ok loaded ->
    (match analyze ?cache ~options loaded analysis with
     | Ok outcome -> Ok outcome
     | Error f -> Error f)
