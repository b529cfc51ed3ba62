(* `acstab serve` — the persistent analysis service.

   A Unix-domain-socket daemon speaking newline-delimited JSON: each
   request is one line, each response one line, so any language with a
   socket and a JSON parser is a client (`nc -U` included). Requests
   run through the same {!Pipeline} as the CLI subcommands and share
   one fingerprint-keyed {!Cache}, so a designer's edit loop — analyze,
   tweak the deck, analyze again — pays for parsing, linting, DC solve
   and symbolic analysis only when the deck (or a file it includes) or
   the options actually changed; an unchanged request is answered from
   the cache without touching the parser, the linter or the engine, and
   without re-encoding its manifest: the answer splices the JSON text
   the result entry keeps from its first hit on ({!Cache.rendering}),
   and each answer line is rendered in one buffer and written from a
   byte array the loop keeps, so an answer allocates no string of its
   own.

   Concurrency: the accept/read side is a single [select] loop (no
   thread juggling, deterministic shutdown), and each batch of complete
   request lines gathered in one wakeup is dispatched over
   {!Parallel.Pool.map_list}, so simultaneous requests from several
   clients analyze in parallel. Nested parallelism is safe: pool
   submissions made from inside a pool task run inline.

   The protocol never kills the daemon: a malformed or failing request
   produces an ["ok": false] response carrying the same exit-code
   contract the CLI uses (2 bad input, 3 analysis failure, 4 lint
   block), and the loop keeps serving.

   Observability: every request gets a daemon-unique request id echoed
   in its response, a server.request span, a line in the structured
   event log (outcome, latency, cache verdict) and a sample in the
   server.request_ms histogram; requests crossing --slow-ms dump
   their span tree as a server.slow_request event. The `metrics`
   command exposes the counter/gauge/histogram registries as
   Prometheus text (gauges refreshed by a background tick), and
   `trace` starts/stops an on-demand Chrome-trace capture of the live
   daemon. *)

let log_src = Logs.Src.create "tool.server" ~doc:"acstab serve daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

let n_connections = Obs.Counter.make "server.connections"
let n_requests = Obs.Counter.make "server.requests"
let n_errors = Obs.Counter.make "server.errors"
let n_batches = Obs.Counter.make "server.batches"
let batch_max = Obs.Counter.make "server.batch_max"
let inflight_hw = Obs.Counter.make "server.inflight_high_water"
let request_ms = Obs.Histogram.make "server.request_ms"

(* Requests currently being handled (gauge state; the counter above
   keeps the high-water mark so one-shot snapshots see it too). *)
let inflight = Atomic.make 0

let inflight_gauge = Obs.Gauge.make "server.inflight"
let pool_busy_gauge = Obs.Gauge.make "pool.busy_workers"
let pool_queue_gauge = Obs.Gauge.make "pool.queue_depth"

(* Request ids are daemon-unique by construction (one atomic sequence)
   and echoed in every response and event-log line, so a client
   report, the NDJSON log and a captured trace can be joined on one
   key. *)
let request_seq = Atomic.make 0

let next_request_id () =
  Printf.sprintf "r%06d" (Atomic.fetch_and_add request_seq 1 + 1)

(* Daemon-side state threaded through request handling. [capturing]
   guards the on-demand trace capture (toggled over the protocol from
   pool domains, hence the mutex). *)
type state = {
  cache : Cache.t;
  slow_ms : float option;
  trace_lock : Mutex.t;
  mutable capturing : bool;
}

(* ---- request handling (protocol layer over Pipeline) ---- *)

let protocol_version = "acstab-serve/1"

let respond_fields ?id fields =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.Obj (id_field @ fields)

let findings_strings ~file findings =
  List.map
    (fun f -> Format.asprintf "%a" (Lint.Rule.pp_finding ~file) f)
    findings

let failure_response ?id ~file failure =
  let findings =
    match failure with
    | Pipeline.Lint_blocked { findings } -> findings_strings ~file findings
    | Pipeline.Analysis_failed { likely_cause; _ } ->
      findings_strings ~file likely_cause
    | _ -> []
  in
  respond_fields ?id
    [ ("ok", Json.Bool false);
      ("error",
       Json.Obj
         [ ("code", Json.Num (float_of_int (Pipeline.exit_code failure)));
           ("message", Json.Str (Pipeline.failure_message failure));
           ("findings", Json.Arr (List.map (fun s -> Json.Str s) findings))
         ]) ]

let error_response ?id ~code message =
  respond_fields ?id
    [ ("ok", Json.Bool false);
      ("error",
       Json.Obj
         [ ("code", Json.Num (float_of_int code));
           ("message", Json.Str message); ("findings", Json.Arr []) ]) ]

let deck_of_request v =
  match (Json.mem_str "deck" v, Json.mem_str "deck_text" v) with
  | Some path, _ -> Ok (Pipeline.Deck_file path, path)
  | None, Some text ->
    let name = Option.value ~default:"<inline>" (Json.mem_str "name" v) in
    Ok (Pipeline.Deck_text { name; text }, name)
  | None, None -> Error "request needs \"deck\" (a path) or \"deck_text\""

let policy_of_request v =
  { Pipeline.no_lint =
      Option.value ~default:false (Json.mem_bool "no_lint" v);
    strict = Option.value ~default:false (Json.mem_bool "strict" v) }

let options_of_request v =
  let fmin = Option.value ~default:1e3 (Json.mem_float "fmin" v) in
  let fmax = Option.value ~default:1e9 (Json.mem_float "fmax" v) in
  let ppd = Option.value ~default:30 (Json.mem_int "ppd" v) in
  (* "backend" mirrors the CLI's --backend enum; an unknown name is a
     protocol error, not a silent fallback to auto. *)
  match Option.value ~default:"auto" (Json.mem_str "backend" v) with
  | "auto" | "dense" | "plan" | "kernel" as b ->
    let backend =
      match b with
      | "dense" -> `Dense
      | "plan" -> `Plan
      | "kernel" -> `Kernel
      | _ -> `Auto
    in
    Ok
      { Stability.Analysis.default_options with
        sweep = Numerics.Sweep.decade fmin fmax ppd; backend }
  | b -> Error (Printf.sprintf "unknown backend %S" b)

let analysis_of_request v =
  match Option.value ~default:"all-nodes" (Json.mem_str "mode" v) with
  | "single-node" ->
    (match Json.mem_str "node" v with
     | Some n -> Ok (Pipeline.Single_node n)
     | None -> Error "single-node requests need \"node\"")
  | "all-nodes" ->
    (* "nodes": "auto" (a string, not a list) selects the static
       report's probe cover, mirroring the CLI's --nodes auto. *)
    if Json.mem_str "nodes" v = Some "auto" then Ok Pipeline.Auto_nodes
    else
      let nodes =
        Option.bind (Json.member "nodes" v) Json.to_list
        |> Option.map (List.filter_map Json.to_str)
      in
      Ok (Pipeline.All_nodes nodes)
  | m -> Error (Printf.sprintf "unknown mode %S" m)

let handle_analyze cache ?id v =
  match deck_of_request v with
  | Error m -> error_response ?id ~code:2 m
  | Ok (deck, file) ->
    (match analysis_of_request v with
     | Error m -> error_response ?id ~code:2 m
     | Ok analysis ->
       (match options_of_request v with
        | Error m -> error_response ?id ~code:2 m
        | Ok options ->
       let req =
         Pipeline.request ~options ~policy:(policy_of_request v) deck
           analysis
       in
       (match Pipeline.run ~cache req with
        | Error failure -> failure_response ?id ~file failure
        | Ok o ->
          (* The entry's text: a miss renders it and keeps nothing,
             the first hit renders and stores it, later hits encode
             nothing. *)
          let text =
            Cache.rendering ~hit:(o.Pipeline.cache = `Hit) o.Pipeline.stored
          in
          respond_fields ?id
            [ ("ok", Json.Bool true);
              ("cache",
               Json.Str (match o.Pipeline.cache with
                         | `Hit -> "hit" | `Miss -> "miss"));
              ("deck_sha256", Json.Str o.Pipeline.loaded.Pipeline.sha256);
              ("wall_s", Json.Num o.Pipeline.wall_s);
              ("nodes", Json.Rendered text.Cache.nodes_json);
              ("manifest", Json.Rendered text.Cache.manifest_json) ])))

let handle_lint cache ?id v =
  match deck_of_request v with
  | Error m -> error_response ?id ~code:2 m
  | Ok (deck, file) ->
    (* Lint only: no gate, the findings themselves are the answer. *)
    (match
       Pipeline.load ~cache ~policy:{ Pipeline.no_lint = true; strict = false }
         deck
     with
     | Error failure -> failure_response ?id ~file failure
     | Ok loaded ->
       let findings = Pipeline.lint_findings ~cache loaded in
       respond_fields ?id
         [ ("ok", Json.Bool true);
           ("deck_sha256", Json.Str loaded.Pipeline.sha256);
           ("report", Lint_report.json ~file findings) ])

let handle_loops cache ?id v =
  match deck_of_request v with
  | Error m -> error_response ?id ~code:2 m
  | Ok (deck, file) ->
    (* Like lint: the report is itself a static diagnostic, no gate. *)
    (match
       Pipeline.load ~cache ~policy:{ Pipeline.no_lint = true; strict = false }
         deck
     with
     | Error failure -> failure_response ?id ~file failure
     | Ok loaded ->
       let d = Staticanalysis.Report.default_bounds in
       let bounds =
         { Staticanalysis.Cycles.max_len =
             Option.value ~default:d.Staticanalysis.Cycles.max_len
               (Json.mem_int "max_len" v);
           max_cycles =
             Option.value ~default:d.Staticanalysis.Cycles.max_cycles
               (Json.mem_int "max_cycles" v) }
       in
       let report, hit = Pipeline.static_report ~cache ~bounds loaded in
       respond_fields ?id
         [ ("ok", Json.Bool true);
           ("cache", Json.Str (if hit then "hit" else "miss"));
           ("deck_sha256", Json.Str loaded.Pipeline.sha256);
           ("report",
            Loops_report.json ~deck:file ~sha256:loaded.Pipeline.sha256
              report) ])

let handle_diff ?id v =
  match (Json.mem_str "a" v, Json.mem_str "b" v) with
  | Some a_path, Some b_path ->
    let load path k =
      match Manifest.load path with
      | Ok m -> k m
      | Error e ->
        error_response ?id ~code:2 (Printf.sprintf "%s: %s" path e)
    in
    load a_path @@ fun a ->
    load b_path @@ fun b ->
    let options =
      { Manifest.rtol_fn =
          Option.value ~default:Manifest.default_diff_options.Manifest.rtol_fn
            (Json.mem_float "rtol_fn" v);
        rtol_zeta =
          Option.value
            ~default:Manifest.default_diff_options.Manifest.rtol_zeta
            (Json.mem_float "rtol_zeta" v) }
    in
    let changes = Manifest.diff ~options a b in
    respond_fields ?id
      (("ok", Json.Bool true)
       ::
       (match Manifest.diff_json ~a ~b changes with
        | Json.Obj fields -> fields
        | j -> [ ("diff", j) ]))
  | _ -> error_response ?id ~code:2 "diff requests need \"a\" and \"b\" paths"

let handle_counters ?id () =
  respond_fields ?id
    [ ("ok", Json.Bool true);
      ("counters",
       Json.Obj
         (List.map
            (fun (k, n) -> (k, Json.Num (float_of_int n)))
            (Obs.Counter.snapshot ()))) ]

let handle_stats cache ?id () =
  respond_fields ?id
    [ ("ok", Json.Bool true);
      ("protocol", Json.Str protocol_version);
      ("jobs", Json.Num (float_of_int (Parallel.Pool.jobs ())));
      ("cache",
       Json.Obj
         (List.map
            (fun (s : Cache.family_stats) ->
              (s.family,
               Json.Obj
                 [ ("entries", Json.Num (float_of_int s.entries));
                   ("capacity", Json.Num (float_of_int s.capacity));
                   ("hits", Json.Num (float_of_int s.hits));
                   ("misses", Json.Num (float_of_int s.misses));
                   ("evictions", Json.Num (float_of_int s.evictions)) ]))
            (Cache.stats cache))) ]

(* Refresh the sampled gauges (cache occupancy, pool busy/queue depth,
   in-flight requests). Runs on the background tick and again inside
   a `metrics` request, so a one-shot scrape never reads stale zeros. *)
let sample_gauges state =
  Cache.sample_gauges state.cache;
  Obs.Gauge.set pool_busy_gauge
    (float_of_int (Parallel.Pool.busy_workers ()));
  Obs.Gauge.set pool_queue_gauge
    (float_of_int (Parallel.Pool.queued_chunks ()));
  Obs.Gauge.set inflight_gauge (float_of_int (Atomic.get inflight))

let handle_metrics state ?id () =
  sample_gauges state;
  respond_fields ?id
    [ ("ok", Json.Bool true);
      ("content_type", Json.Str "text/plain; version=0.0.4");
      ("metrics", Json.Str (Obs.Prometheus.render ())) ]

(* On-demand Chrome-trace capture of the live daemon: `start` clears
   the span buffers and switches recording on, `stop` drains them into
   the trace JSON and (unless --slow-ms needs spans for its own dumps)
   switches recording back off. No restart, no file on the daemon's
   disk — the trace rides back over the protocol. *)
let handle_trace state ?id v =
  let locked f =
    Mutex.lock state.trace_lock;
    let r = f () in
    Mutex.unlock state.trace_lock;
    r
  in
  match Option.value ~default:"status" (Json.mem_str "action" v) with
  | "start" ->
    locked (fun () ->
        if state.capturing then
          error_response ?id ~code:2 "trace capture already running"
        else begin
          Obs.Span.clear ();
          Obs.Span.enable ();
          state.capturing <- true;
          respond_fields ?id
            [ ("ok", Json.Bool true); ("capturing", Json.Bool true) ]
        end)
  | "stop" ->
    locked (fun () ->
        if not state.capturing then
          error_response ?id ~code:2 "no trace capture running"
        else begin
          let events = Obs.Span.events () in
          if state.slow_ms = None then Obs.Span.disable ();
          Obs.Span.clear ();
          state.capturing <- false;
          respond_fields ?id
            [ ("ok", Json.Bool true); ("capturing", Json.Bool false);
              ("spans", Json.Num (float_of_int (List.length events)));
              ("trace", Json.Str (Obs.Trace.to_string_events events)) ]
        end)
  | "status" ->
    locked (fun () ->
        respond_fields ?id
          [ ("ok", Json.Bool true);
            ("capturing", Json.Bool state.capturing) ])
  | a ->
    error_response ?id ~code:2
      (Printf.sprintf "unknown trace action %S (start|stop|status)" a)

(* Indented one-line rendering of the spans this domain recorded
   inside [t0, t1] — the request's span tree, dumped into the event
   log when a request crosses --slow-ms. Depth comes from interval
   containment, which is exact for the single-domain case (a request
   body runs on one pool domain). *)
let render_request_spans ~tid ~t0 ~t1 events =
  let mine =
    List.filter
      (fun (e : Obs.Span.event) ->
        e.tid = tid && e.ts_ns >= t0 && e.ts_ns <= t1)
      events
  in
  let b = Buffer.create 128 in
  let stack = ref [] in
  List.iteri
    (fun i (e : Obs.Span.event) ->
      let fin = e.ts_ns + e.dur_ns in
      stack := List.filter (fun end_ns -> end_ns > e.ts_ns) !stack;
      if i > 0 then Buffer.add_string b "; ";
      Buffer.add_string b (String.make (List.length !stack) '.');
      Buffer.add_string b
        (Printf.sprintf "%s=%.3fms" e.name
           (float_of_int e.dur_ns /. 1e6));
      stack := fin :: !stack)
    mine;
  Buffer.contents b

let dispatch state ?id v =
  match Json.mem_str "cmd" v with
  | Some "analyze" -> (handle_analyze state.cache ?id v, `Go)
  | Some "lint" -> (handle_lint state.cache ?id v, `Go)
  | Some "loops" -> (handle_loops state.cache ?id v, `Go)
  | Some "diff" -> (handle_diff ?id v, `Go)
  | Some "counters" -> (handle_counters ?id (), `Go)
  | Some "stats" -> (handle_stats state.cache ?id (), `Go)
  | Some "metrics" -> (handle_metrics state ?id (), `Go)
  | Some "trace" -> (handle_trace state ?id v, `Go)
  | Some "ping" ->
    (respond_fields ?id
       [ ("ok", Json.Bool true); ("pong", Json.Bool true);
         ("protocol", Json.Str protocol_version) ],
     `Go)
  | Some "shutdown" ->
    (respond_fields ?id [ ("ok", Json.Bool true); ("bye", Json.Bool true) ],
     `Stop)
  | Some c ->
    (error_response ?id ~code:2 (Printf.sprintf "unknown cmd %S" c), `Go)
  | None -> (error_response ?id ~code:2 "request needs \"cmd\"", `Go)

(* A connection whose unterminated line grows past this many bytes is
   answered a code-2 error and closed: without a bound one client could
   grow the daemon's memory until the machine runs out. Real requests
   stay far below it; a 10 001-unknown synthetic mesh sent inline is
   654 KiB. *)
let max_line_bytes = 16 * 1024 * 1024

(* Per-request instrumentation around [dispatch]: counters, the
   latency histogram, the request-id stitched into the response, one
   event-log line per request (outcome, latency, cache verdict), and
   the slow-request span dump. [`Stop] tells the serve loop to finish
   writing and exit, [`Close] to close this connection. *)
let handle state request =
  Obs.Counter.incr n_requests;
  let rid = next_request_id () in
  let infl = 1 + Atomic.fetch_and_add inflight 1 in
  Obs.Counter.record_max inflight_hw infl;
  let t0 = Obs.Clock.now_ns () in
  let span = Obs.Span.enter () in
  let cmd, (response, verdict) =
    match request with
    | `Too_long ->
      ( "too_long",
        ( error_response ~code:2
            (Printf.sprintf
               "request line exceeds %d bytes without a newline; closing \
                the connection"
               max_line_bytes),
          `Close ) )
    | `Line line ->
      (match Json.of_string line with
       | Error e ->
         (* Malformed NDJSON (a half-written line, say) still gets a
            structured error carrying the client's "id" when one can be
            salvaged from the broken text — so a pipelining client can
            correlate the failure — and never kills the connection. *)
         let id = Json.salvage_member "id" line in
         ( "malformed",
           ( error_response ?id ~code:2
               (Printf.sprintf "bad request JSON: %s" e),
             `Go ) )
       | Ok v ->
         ( Option.value ~default:"?" (Json.mem_str "cmd" v),
           dispatch state ?id:(Json.member "id" v) v ))
  in
  Obs.Span.leave "server.request" span;
  let t1 = Obs.Clock.now_ns () in
  ignore (Atomic.fetch_and_add inflight (-1));
  let ms = float_of_int (t1 - t0) /. 1e6 in
  Obs.Histogram.observe request_ms ms;
  let ok = Json.mem_bool "ok" response <> Some false in
  if not ok then Obs.Counter.incr n_errors;
  let response =
    match response with
    | Json.Obj fields -> Json.Obj (("request_id", Json.Str rid) :: fields)
    | other -> other
  in
  if Obs.Events.enabled () then begin
    let fields =
      [ ("request_id", Obs.Events.Str rid); ("cmd", Obs.Events.Str cmd);
        ("ok", Obs.Events.Bool ok); ("ms", Obs.Events.Float ms) ]
      @ (match Json.mem_str "cache" response with
         | Some verdict -> [ ("cache", Obs.Events.Str verdict) ]
         | None -> [])
      @ (match
           Option.bind (Json.member "error" response) (Json.mem_int "code")
         with
         | Some code -> [ ("code", Obs.Events.Int code) ]
         | None -> [])
    in
    Obs.Events.emit
      ~level:(if ok then Obs.Events.Info else Obs.Events.Warn)
      "server.request" fields
  end;
  (match state.slow_ms with
   | Some limit when ms >= limit ->
     let tid = (Domain.self () :> int) in
     Obs.Events.emit ~level:Obs.Events.Warn "server.slow_request"
       [ ("request_id", Obs.Events.Str rid);
         ("ms", Obs.Events.Float ms);
         ("limit_ms", Obs.Events.Float limit);
         ("spans",
          Obs.Events.Str
            (render_request_spans ~tid ~t0 ~t1 (Obs.Span.events ()))) ]
   | _ -> ());
  (response, verdict)

(* ---- the select loop ---- *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* bytes read, not yet terminated by '\n' *)
}

(* Write the first [n] bytes of [b], in as many calls as the socket needs. *)
let write_all fd b n =
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Where answer lines are written from: [v] with its newline, rendered
   in [buf] and copied into [line], which grows to the longest line so
   far and keeps that capacity, so an answer allocates no string of its
   own. *)
type writer = { buf : Buffer.t; mutable line : Bytes.t }

let writer () = { buf = Buffer.create 4096; line = Bytes.create 4096 }

let write_line w fd v =
  Buffer.clear w.buf;
  Json.to_buffer w.buf v;
  Buffer.add_char w.buf '\n';
  let n = Buffer.length w.buf in
  if Bytes.length w.line < n then
    w.line <- Bytes.create (Int.max n (2 * Bytes.length w.line));
  Buffer.blit w.buf 0 w.line 0 n;
  write_all fd w.line n

(* Append the [n] bytes just read to [pending] and return the lines they
   complete. Only the new bytes are scanned for a newline, so a line
   arriving over many reads costs linear copying, not quadratic. *)
let complete_lines pending chunk n =
  match Bytes.rindex_from_opt chunk (n - 1) '\n' with
  | None ->
    Buffer.add_subbytes pending chunk 0 n;
    []
  | Some last ->
    Buffer.add_subbytes pending chunk 0 last;
    let text = Buffer.contents pending in
    Buffer.clear pending;
    Buffer.add_subbytes pending chunk (last + 1) (n - last - 1);
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")

exception Stop_serving

(* A socket file already existing at the path is either a live daemon
   (stealing its path would silently split clients between two caches)
   or the remains of one that died without [finally]. A probe connect
   tells them apart: a live daemon accepts, a stale file refuses. *)
let claim_socket socket =
  match Unix.lstat socket with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let close_probe () =
      try Unix.close probe with Unix.Unix_error _ -> ()
    in
    match Unix.connect probe (Unix.ADDR_UNIX socket) with
    | () ->
      close_probe ();
      failwith
        (Printf.sprintf
           "a daemon is already serving on %s; shut it down first or \
            pick another --socket path"
           socket)
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      close_probe ();
      Log.app (fun f -> f "removing stale socket %s" socket);
      (try Unix.unlink socket with
       | Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | exception e -> close_probe (); raise e)
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" socket)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve ?(capacity = Cache.default_capacity) ?log ?slow_ms
    ?(tick_s = 1.0) ~socket () =
  (* A client that hangs up before its answer must not take the daemon
     with it: the write then fails with EPIPE, which closes that
     connection only, instead of raising SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  claim_socket socket;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 16;
  let cache = Cache.create ~capacity () in
  Option.iter Obs.Events.to_file log;
  let state =
    { cache; slow_ms; trace_lock = Mutex.create (); capturing = false }
  in
  (* Slow-request dumps need span recording on for every request; the
     loop clears the buffers after each batch (below) so memory stays
     bounded over a long-lived daemon. *)
  if slow_ms <> None then Obs.Span.enable ();
  Obs.Events.emit "server.start"
    [ ("socket", Obs.Events.Str socket);
      ("protocol", Obs.Events.Str protocol_version) ];
  Log.app (fun f -> f "listening on %s (protocol %s)" socket protocol_version);
  let conns = ref [] in
  let close_conn c =
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let read_chunk = Bytes.create 65536 in
  let out = writer () in
  let finally () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      !conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink socket with Unix.Unix_error _ -> ());
    Obs.Events.emit "server.stop"
      [ ("socket", Obs.Events.Str socket);
        ("requests", Obs.Events.Int (Obs.Counter.value n_requests)) ]
  in
  (* Background gauge sampling: the select sleeps at most one tick, and
     the gauges refresh whenever a tick has elapsed — with or without
     traffic — so scrapes between requests still see live occupancy. *)
  let tick_ns = int_of_float (Float.max 0.01 tick_s *. 1e9) in
  let last_tick = ref (Obs.Clock.now_ns ()) in
  sample_gauges state;
  (try
     while true do
       let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
       let readable, _, _ =
         match Unix.select fds [] [] (Float.max 0.01 tick_s) with
         | r -> r
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       let now = Obs.Clock.now_ns () in
       if now - !last_tick >= tick_ns then begin
         last_tick := now;
         sample_gauges state
       end;
       if List.memq listen_fd readable then begin
         match Unix.accept listen_fd with
         | fd, _ ->
           Obs.Counter.incr n_connections;
           conns := { fd; pending = Buffer.create 256 } :: !conns
         | exception Unix.Unix_error _ -> ()
       end;
       (* Drain every readable connection, then dispatch the gathered
          batch in parallel: requests that arrive together analyze
          together. *)
       let batch = ref [] in
       List.iter
         (fun c ->
           if List.memq c.fd readable then begin
             match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
             | 0 -> close_conn c
             | n ->
               List.iter
                 (fun line -> batch := (c, `Line line) :: !batch)
                 (complete_lines c.pending read_chunk n);
               (* Past the bound the read held no newline, so nothing
                  of this connection is in the batch yet. *)
               if Buffer.length c.pending > max_line_bytes then begin
                 Buffer.reset c.pending;
                 batch := (c, `Too_long) :: !batch
               end
             | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
               close_conn c
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           end)
         !conns;
       let batch = List.rev !batch in
       if batch <> [] then begin
         Obs.Counter.incr n_batches;
         Obs.Counter.record_max batch_max (List.length batch);
         let t0 = Obs.Span.enter () in
         let responses =
           Parallel.Pool.map_list
             (fun (c, request) ->
               let response, verdict = handle state request in
               (c, response, verdict))
             batch
         in
         Obs.Span.leave "server.batch"
           ~args:[ ("requests", List.length batch) ] t0;
         let stop = ref false in
         List.iter
           (fun (c, response, verdict) ->
             (try write_line out c.fd response
              with Unix.Unix_error _ -> close_conn c);
             match verdict with
             | `Go -> ()
             | `Close -> close_conn c
             | `Stop -> stop := true)
           responses;
         (* With --slow-ms on (and no client-driven capture running)
            spans exist only to feed the slow dumps, which have been
            taken by now — drop them so a busy daemon's buffers do not
            grow without bound. *)
         if slow_ms <> None then begin
           Mutex.lock state.trace_lock;
           let capturing = state.capturing in
           Mutex.unlock state.trace_lock;
           if not capturing then Obs.Span.clear ()
         end;
         if !stop then raise Stop_serving
       end
     done
   with
   | Stop_serving -> finally ()
   | e -> finally (); raise e);
  Log.app (fun f -> f "shut down cleanly")

(* ---- a minimal client, for tests and scripting ---- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; out : writer }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; ic = Unix.in_channel_of_descr fd; out = writer () }

  let send t req = write_line t.out t.fd req

  let recv_line t =
    match input_line t.ic with
    | line -> line
    | exception End_of_file -> failwith "server closed the connection"

  let recv t =
    match Json.of_string (recv_line t) with
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "bad response JSON: %s" e)

  let request t req = send t req; recv t

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
