(* @serve-obs — end-to-end exercise of the daemon's observability
   surface.

   Boots `acstab serve` with an event-log sink, --slow-ms 0 (every
   request dumps its span tree) and a fast gauge tick, then over the
   wire: concurrent requests with unique request ids, a cold+warm
   analyze pair, the `metrics` command parsed back as Prometheus
   exposition, an on-demand `trace` capture yielding a valid Chrome
   trace, a malformed half-written request answered with a structured
   error that salvages the client's id (and the same connection kept
   serving), and a `Tool.Top` sample against the live daemon. After
   shutdown the event log must be valid NDJSON with exactly one
   server.request line per request, all ids unique. *)

let sock =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "acstab-obs-%d.sock" (Unix.getpid ()))

let log_path =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "acstab-obs-%d.ndjson" (Unix.getpid ()))

let cleanup () =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ sock; log_path ]

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve-obs: FAIL: " ^ m);
      cleanup ();
      exit 1)
    fmt

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_ok j =
  match Tool.Json.mem_bool "ok" j with
  | Some true -> ()
  | _ -> fail "request not ok: %s" (Tool.Json.to_string j)

let request_id j =
  match Tool.Json.mem_str "request_id" j with
  | Some rid when String.length rid > 1 && rid.[0] = 'r' -> rid
  | Some rid -> fail "request_id %S is not of the r%%06d shape" rid
  | None -> fail "response lacks request_id: %s" (Tool.Json.to_string j)

let deck_text =
  "obs smoke\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n.end\n"

let analyze_req =
  Tool.Json.Obj
    [ ("cmd", Tool.Json.Str "analyze");
      ("mode", Tool.Json.Str "all-nodes");
      ("deck_text", Tool.Json.Str deck_text);
      ("name", Tool.Json.Str "obs_smoke.sp");
      ("fmin", Tool.Json.Num 1e3); ("fmax", Tool.Json.Num 1e6);
      ("ppd", Tool.Json.Num 10.) ]

let () =
  let server =
    Thread.create
      (fun () ->
        Tool.Server.serve ~socket:sock ~log:log_path ~slow_ms:0.0
          ~tick_s:0.05 ())
      ()
  in
  let rec wait_for_socket n =
    if n = 0 then fail "daemon socket never appeared"
    else if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.05;
      wait_for_socket (n - 1)
    end
  in
  wait_for_socket 200;
  let c = Tool.Server.Client.connect sock in
  let sent = ref 0 in
  let ask req =
    incr sent;
    Tool.Server.Client.request c req
  in

  (* Every response carries a request id. *)
  let pong = ask (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ]) in
  expect_ok pong;
  let _ = request_id pong in

  (* Concurrent requests on distinct connections: all in flight before
     any response is read, ids still unique. *)
  let n_conc = 8 in
  let clients =
    List.init n_conc (fun _ -> Tool.Server.Client.connect sock)
  in
  List.iter
    (fun cl ->
      incr sent;
      Tool.Server.Client.send cl
        (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ]))
    clients;
  let rids =
    List.map
      (fun cl ->
        let r = Tool.Server.Client.recv cl in
        expect_ok r;
        Tool.Server.Client.close cl;
        request_id r)
      clients
  in
  if List.length (List.sort_uniq compare rids) <> n_conc then
    fail "concurrent request ids not unique: %s" (String.concat "," rids);

  (* Cold + warm analyze pair: the cache verdicts ride in the responses
     and (checked after shutdown) in the event log. *)
  let cold = ask analyze_req in
  expect_ok cold;
  let cold_rid = request_id cold in
  (match Tool.Json.mem_str "cache" cold with
   | Some "miss" -> ()
   | v -> fail "cold cache=%s" (Option.value ~default:"<absent>" v));
  let warm = ask analyze_req in
  expect_ok warm;
  let warm_rid = request_id warm in
  (match Tool.Json.mem_str "cache" warm with
   | Some "hit" -> ()
   | v -> fail "warm cache=%s" (Option.value ~default:"<absent>" v));
  if cold_rid = warm_rid then fail "cold and warm share a request id";

  (* metrics: Prometheus text 0.0.4 carrying the request-latency
     summary, sampled cache-occupancy gauges, pool gauges and the
     ns->ms-converted pool counters. *)
  let m = ask (Tool.Json.Obj [ ("cmd", Tool.Json.Str "metrics") ]) in
  expect_ok m;
  (match Tool.Json.mem_str "content_type" m with
   | Some "text/plain; version=0.0.4" -> ()
   | v ->
     fail "metrics content_type %s" (Option.value ~default:"<absent>" v));
  let exposition =
    match Tool.Json.mem_str "metrics" m with
    | Some t -> t
    | None -> fail "metrics response lacks the exposition text"
  in
  let samples =
    match Obs.Prometheus.parse exposition with
    | Ok s -> s
    | Error e -> fail "metrics text is not valid exposition: %s" e
  in
  let must ?labels name =
    match Obs.Prometheus.find ?labels name samples with
    | Some v -> v
    | None -> fail "metrics lack %s" name
  in
  if must "acstab_server_requests_total" < float_of_int !sent then
    fail "server_requests_total below the requests we sent";
  List.iter
    (fun q ->
      ignore
        (must ~labels:[ ("quantile", q) ] "acstab_server_request_ms"))
    [ "0.5"; "0.9"; "0.99" ];
  if must "acstab_server_request_ms_count" < 1. then
    fail "request_ms summary has no observations";
  List.iter
    (fun g -> ignore (must g))
    [ "acstab_cache_result_entries"; "acstab_cache_result_capacity";
      "acstab_cache_op_entries"; "acstab_pool_busy_workers";
      "acstab_pool_queue_depth"; "acstab_server_inflight";
      "acstab_pool_main_busy_ms_total" ];
  if must "acstab_cache_result_entries" < 1. then
    fail "result cache shows no entries after an analyze";

  (* trace: start/stop capture of the live daemon, no restart. *)
  let status = ask (Tool.Json.Obj [ ("cmd", Tool.Json.Str "trace") ]) in
  expect_ok status;
  (match Tool.Json.mem_bool "capturing" status with
   | Some false -> ()
   | _ -> fail "capture running before start");
  let start =
    ask
      (Tool.Json.Obj
         [ ("cmd", Tool.Json.Str "trace");
           ("action", Tool.Json.Str "start") ])
  in
  expect_ok start;
  for _ = 1 to 3 do
    expect_ok (ask (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ]))
  done;
  expect_ok (ask analyze_req);
  let stop =
    ask
      (Tool.Json.Obj
         [ ("cmd", Tool.Json.Str "trace");
           ("action", Tool.Json.Str "stop") ])
  in
  expect_ok stop;
  (match Option.bind (Tool.Json.member "spans" stop) Tool.Json.to_float with
   | Some n when n >= 1. -> ()
   | _ -> fail "trace capture recorded no spans");
  let trace_text =
    match Tool.Json.mem_str "trace" stop with
    | Some t -> t
    | None -> fail "trace stop carries no trace"
  in
  if String.length trace_text < 16
     || String.sub trace_text 0 16 <> "{\"traceEvents\":["
  then fail "trace is not Chrome trace-event JSON";
  (match Tool.Json.of_string trace_text with
   | Ok _ -> ()
   | Error e -> fail "trace does not parse as JSON: %s" e);
  if not (contains trace_text "\"name\":\"server.request\"") then
    fail "trace lacks the server.request spans";
  let stop2 =
    ask
      (Tool.Json.Obj
         [ ("cmd", Tool.Json.Str "trace");
           ("action", Tool.Json.Str "stop") ])
  in
  (match
     Option.bind (Tool.Json.member "error" stop2) (Tool.Json.mem_int "code")
   with
   | Some 2 -> ()
   | _ -> fail "stop without a capture must be a code-2 error");

  (* Malformed NDJSON on a raw connection: a half-written line gets a
     structured code-2 error that salvages the client's id, and the
     same connection keeps serving. *)
  let raw_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect raw_fd (Unix.ADDR_UNIX sock);
  let raw_ic = Unix.in_channel_of_descr raw_fd in
  let raw_send s =
    incr sent;
    ignore (Unix.write_substring raw_fd s 0 (String.length s))
  in
  let raw_recv () =
    match Tool.Json.of_string (input_line raw_ic) with
    | Ok v -> v
    | Error e -> fail "raw response not JSON: %s" e
  in
  raw_send "{\"cmd\":\"ping\",\"id\":\"x1\"\n";
  let broken = raw_recv () in
  (match Tool.Json.mem_bool "ok" broken with
   | Some false -> ()
   | _ -> fail "malformed line accepted: %s" (Tool.Json.to_string broken));
  (match
     Option.bind (Tool.Json.member "error" broken) (Tool.Json.mem_int "code")
   with
   | Some 2 -> ()
   | _ -> fail "malformed line error is not code 2");
  (match Tool.Json.mem_str "id" broken with
   | Some "x1" -> ()
   | v ->
     fail "salvaged id %s, wanted x1" (Option.value ~default:"<absent>" v));
  let _ = request_id broken in
  raw_send "{\"cmd\":\"ping\",\"id\":\"x2\"}\n";
  let after = raw_recv () in
  expect_ok after;
  (match Tool.Json.mem_str "id" after with
   | Some "x2" -> ()
   | _ -> fail "connection did not survive the malformed line");
  Unix.close raw_fd;

  (* acstab top's sampler against the live daemon. *)
  sent := !sent + 2 (* Top.sample issues stats + metrics *);
  (match Tool.Top.sample c with
   | Error e -> fail "top sample failed: %s" e
   | Ok s ->
     if s.Tool.Top.requests < 1 then fail "top sees no requests";
     if s.Tool.Top.latency.Tool.Top.count < 1 then
       fail "top sees no latency observations";
     if s.Tool.Top.cache = [] then fail "top sees no cache families";
     let j = Tool.Json.to_string (Tool.Top.to_json s) in
     if not (contains j "\"schema\":\"acstab-top/1\"") then
       fail "top json lacks its schema";
     if not (contains j "\"latency_ms\"") then
       fail "top json lacks latency_ms";
     let txt = Tool.Top.render ~socket:sock s in
     if not (contains txt "latency ms") then
       fail "top render lacks the latency row");

  (* Shutdown, then audit the event log. *)
  let bye = ask (Tool.Json.Obj [ ("cmd", Tool.Json.Str "shutdown") ]) in
  expect_ok bye;
  Tool.Server.Client.close c;
  Thread.join server;
  if Sys.file_exists sock then fail "socket file survived shutdown";

  let ic = open_in log_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  if lines = [] then fail "event log is empty";
  let parsed =
    List.map
      (fun line ->
        match Tool.Json.of_string line with
        | Ok v -> v
        | Error e -> fail "event log line is not JSON (%s): %s" e line)
      lines
  in
  List.iter
    (fun v ->
      List.iter
        (fun k ->
          if Tool.Json.member k v = None then
            fail "event log line lacks %S: %s" k (Tool.Json.to_string v))
        [ "ts_ns"; "seq"; "level"; "event" ])
    parsed;
  (match parsed with
   | first :: _ ->
     if Tool.Json.mem_str "event" first <> Some "log.open"
        || Tool.Json.mem_str "schema" first <> Some "acstab-log/1"
     then fail "event log does not open by announcing acstab-log/1"
   | [] -> assert false);
  let named n =
    List.filter (fun v -> Tool.Json.mem_str "event" v = Some n) parsed
  in
  if List.length (named "server.start") <> 1 then
    fail "event log lacks the server.start line";
  if List.length (named "server.stop") <> 1 then
    fail "event log lacks the server.stop line";
  let reqs = named "server.request" in
  if List.length reqs <> !sent then
    fail "event log has %d server.request lines for %d requests"
      (List.length reqs) !sent;
  let log_rids =
    List.map
      (fun v ->
        match Tool.Json.mem_str "request_id" v with
        | Some rid -> rid
        | None -> fail "server.request line lacks request_id")
      reqs
  in
  if List.length (List.sort_uniq compare log_rids) <> List.length log_rids
  then fail "event-log request ids are not unique";
  List.iter
    (fun v ->
      if Option.bind (Tool.Json.member "ms" v) Tool.Json.to_float = None
      then fail "server.request line lacks ms";
      if Tool.Json.mem_bool "ok" v = None then
        fail "server.request line lacks ok")
    reqs;
  let verdict_of rid =
    match
      List.find_opt
        (fun v -> Tool.Json.mem_str "request_id" v = Some rid)
        reqs
    with
    | Some v -> Tool.Json.mem_str "cache" v
    | None -> fail "no event-log line for request %s" rid
  in
  if verdict_of cold_rid <> Some "miss" then
    fail "cold analyze not logged as a miss";
  if verdict_of warm_rid <> Some "hit" then
    fail "warm analyze not logged as a hit";
  (* --slow-ms 0 dumps every request's span tree. *)
  (match named "server.slow_request" with
   | [] -> fail "slow_ms=0 produced no server.slow_request lines"
   | slow ->
     if
       not
         (List.exists
            (fun v ->
              match Tool.Json.mem_str "spans" v with
              | Some s -> contains s "server.request="
              | None -> false)
            slow)
     then fail "slow_request lines carry no span tree");

  cleanup ();
  print_endline
    "serve-obs: OK (request ids unique across 8 concurrent + serial \
     requests, cold miss / warm hit logged with latency, Prometheus \
     metrics over the socket with request_ms quantiles + cache/pool \
     gauges, live trace start/stop yields parseable Chrome trace, \
     malformed line answered with salvaged id on a surviving \
     connection, acstab top sample/json/render, NDJSON log audited \
     line-per-request)"
