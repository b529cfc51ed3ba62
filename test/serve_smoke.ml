(* @serve-smoke — end-to-end exercise of the `acstab serve` daemon.

   Starts the daemon on a private socket, then over the wire: a cold
   all-nodes request whose manifest is rendered once and not kept, a
   warm repeat that must be answered from the cache with a
   byte-identical answer line (request id and cache verdict aside, both
   lines canonical JSON), one deck-family hit and zero extra deck
   digests / graph builds / DC solves / symbolic analyses, rendering
   its manifest once to keep it, and a second warm repeat that renders
   nothing (the cold request computes one digest; asserted from the Obs
   counters via the protocol's own `counters` command), the
   lint gate re-applied to memoized findings, four concurrent
   in-flight requests on four connections, and a clean shutdown that
   removes the socket file. *)

let sock =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "acstab-smoke-%d.sock" (Unix.getpid ()))

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve-smoke: FAIL: " ^ m);
      (try Sys.remove sock with Sys_error _ -> ());
      exit 1)
    fmt

let mem name j =
  match Tool.Json.member name j with
  | Some v -> v
  | None -> fail "response lacks %S in %s" name (Tool.Json.to_string j)

let expect_ok j =
  match Tool.Json.mem_bool "ok" j with
  | Some true -> ()
  | _ -> fail "request not ok: %s" (Tool.Json.to_string j)

let expect_cache verdict j =
  match Tool.Json.mem_str "cache" j with
  | Some v when v = verdict -> ()
  | v ->
    fail "expected cache=%s, got %s" verdict
      (Option.value ~default:"<absent>" v)

let counter c name =
  let r = Tool.Server.Client.request c (Tool.Json.Obj [ ("cmd", Tool.Json.Str "counters") ]) in
  expect_ok r;
  match Option.bind (Tool.Json.member "counters" r) (Tool.Json.mem_int name) with
  | Some n -> n
  | None -> fail "counter %S missing" name

let deck_text = Circuit.Netlist.to_spice (Workloads.Ladder.rc ())

let analyze_fields =
  [ ("cmd", Tool.Json.Str "analyze");
    ("deck_text", Tool.Json.Str deck_text);
    ("name", Tool.Json.Str "rc_ladder_20.sp") ]

let () =
  let server =
    Thread.create (fun () -> Tool.Server.serve ~socket:sock ()) ()
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

  (* Protocol sanity. *)
  let pong =
    Tool.Server.Client.request c (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ])
  in
  expect_ok pong;
  (match Tool.Json.mem_str "protocol" pong with
   | Some p when p = Tool.Server.protocol_version -> ()
   | p ->
     fail "protocol mismatch: %s" (Option.value ~default:"<absent>" p));

  (* The answer line exactly as the daemon wrote it, and its parse. *)
  let request_line req =
    Tool.Server.Client.send c req;
    let line = Tool.Server.Client.recv_line c in
    match Tool.Json.of_string line with
    | Ok j -> (line, j)
    | Error e -> fail "bad answer JSON (%s): %s" e line
  in

  (* Cold request: a miss that does real work and renders its manifest
     once, keeping none of the text. *)
  let all_nodes =
    Tool.Json.Obj (("mode", Tool.Json.Str "all-nodes") :: analyze_fields)
  in
  let renders0 = counter c "manifest.renders"
  and digests0 = counter c "deck.digests" in
  let cold_line, cold = request_line all_nodes in
  expect_ok cold;
  expect_cache "miss" cold;
  let renders1 = counter c "manifest.renders"
  and digests1 = counter c "deck.digests" in
  if renders1 <> renders0 + 1 then
    fail "cold request rendered its manifest %d times, wanted 1"
      (renders1 - renders0);
  if digests1 <> digests0 + 1 then
    fail "cold request computed %d deck digests, wanted 1"
      (digests1 - digests0);

  (* Warm repeat: a hit, zero re-solves, and the deck itself served
     from the deck family — no digest, no parse, no lint pass, no graph
     build. The first hit renders the manifest once, because the miss
     kept no text, and stores it. *)
  let dc0 = counter c "dcop.solves"
  and sym0 = counter c "acplan.symbolic"
  and sfg0 = counter c "sfg.builds"
  and deck0 = counter c "cache.deck.hits" in
  let warm_line, warm = request_line all_nodes in
  expect_ok warm;
  expect_cache "hit" warm;
  let dc1 = counter c "dcop.solves"
  and sym1 = counter c "acplan.symbolic"
  and sfg1 = counter c "sfg.builds"
  and deck1 = counter c "cache.deck.hits"
  and renders2 = counter c "manifest.renders"
  and digests2 = counter c "deck.digests" in
  if digests2 <> digests1 then
    fail "warm request computed %d deck digests, wanted 0"
      (digests2 - digests1);
  if dc1 <> dc0 then fail "warm request re-solved DC (%d -> %d)" dc0 dc1;
  if sym1 <> sym0 then
    fail "warm request re-ran symbolic analysis (%d -> %d)" sym0 sym1;
  if sfg1 <> sfg0 then
    fail "warm request rebuilt the signal-flow graph (%d -> %d)" sfg0 sfg1;
  if deck1 <> deck0 + 1 then
    fail "warm request made %d deck-family hits, wanted 1" (deck1 - deck0);
  if renders2 <> renders1 + 1 then
    fail "first warm request rendered its manifest %d times, wanted 1"
      (renders2 - renders1);
  (* Second warm repeat: it splices the text the first hit stored. *)
  let warm2_line, warm2 = request_line all_nodes in
  expect_ok warm2;
  expect_cache "hit" warm2;
  let renders3 = counter c "manifest.renders" in
  if renders3 <> renders2 then
    fail "second warm request re-rendered its manifest (%d -> %d)" renders2
      renders3;
  (* The answer bytes: each line is canonical JSON (what [to_string]
     prints for its own parse), and the warm line is the cold line but
     for the request id and the verdict. *)
  List.iter
    (fun (what, line, j) ->
      if Tool.Json.to_string j <> line then
        fail "%s answer line is not canonical JSON: %s" what line)
    [ ("cold", cold_line, cold); ("warm", warm_line, warm);
      ("second warm", warm2_line, warm2) ];
  let blanked = function
    | Tool.Json.Obj fields ->
      Tool.Json.to_string
        (Tool.Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "request_id" || k = "cache" then (k, Tool.Json.Null)
                else (k, v))
              fields))
    | j -> fail "answer is not an object: %s" (Tool.Json.to_string j)
  in
  if blanked cold <> blanked warm then
    fail "warm answer line differs from cold:\n%s\n%s" cold_line warm_line;
  if blanked cold <> blanked warm2 then
    fail "second warm answer line differs from cold:\n%s\n%s" cold_line
      warm2_line;

  (* Four concurrent in-flight requests on four connections: all sent
     before any response is read, so the daemon holds (at least) four
     at once and answers them through the pool. *)
  let nodes =
    match Tool.Json.to_list (mem "nodes" cold) with
    | Some l -> List.filter_map (Tool.Json.mem_str "node") l
    | None -> fail "cold response has no node list"
  in
  let picks =
    match nodes with
    | a :: b :: d :: e :: _ -> [ a; b; d; e ]
    | _ -> fail "ladder run returned fewer than 4 nodes"
  in
  let clients = List.map (fun _ -> Tool.Server.Client.connect sock) picks in
  List.iter2
    (fun cl node ->
      Tool.Server.Client.send cl
        (Tool.Json.Obj
           (("mode", Tool.Json.Str "single-node")
            :: ("node", Tool.Json.Str node)
            :: analyze_fields)))
    clients picks;
  List.iter2
    (fun cl node ->
      let r = Tool.Server.Client.recv cl in
      expect_ok r;
      (match Tool.Json.to_list (mem "nodes" r) with
       | Some [ entry ] ->
         (match Tool.Json.mem_str "node" entry with
          | Some n when n = node -> ()
          | n ->
            fail "concurrent response for %s names %s" node
              (Option.value ~default:"<absent>" n))
       | _ -> fail "concurrent single-node response malformed");
      Tool.Server.Client.close cl)
    clients picks;
  (* The concurrent batch reused the warm operating point. *)
  let dc2 = counter c "dcop.solves" in
  if dc2 <> dc1 then
    fail "concurrent requests re-solved DC (%d -> %d)" dc1 dc2;

  (* Static loops report over the wire: a cold miss builds the graph,
     a warm repeat is a hit with zero rebuilds (cache.sfg family). *)
  let ring_text =
    "ring smoke\nVIN in 0 DC 0 AC 1\nRIN in a 1k\nGA b 0 a 0 1m\n\
     RA b 0 1k\nCB b 0 1n\nGB a 0 b 0 1m\n.end\n"
  in
  let loops_req =
    Tool.Json.Obj
      [ ("cmd", Tool.Json.Str "loops");
        ("deck_text", Tool.Json.Str ring_text);
        ("name", Tool.Json.Str "ring.sp") ]
  in
  let loops_cold = Tool.Server.Client.request c loops_req in
  expect_ok loops_cold;
  expect_cache "miss" loops_cold;
  let report = mem "report" loops_cold in
  (match Tool.Json.mem_str "schema" report with
   | Some "acstab-loops/1" -> ()
   | s ->
     fail "loops schema mismatch: %s" (Option.value ~default:"<absent>" s));
  (match Tool.Json.to_list (mem "loops" report) with
   | Some [ loop ] ->
     (match Tool.Json.mem_str "id" loop with
      | Some "a>b" -> ()
      | i -> fail "loop id %s, wanted a>b" (Option.value ~default:"?" i))
   | _ -> fail "ring deck must report exactly one loop");
  let builds0 = counter c "sfg.builds" in
  let loops_warm = Tool.Server.Client.request c loops_req in
  expect_ok loops_warm;
  expect_cache "hit" loops_warm;
  let builds1 = counter c "sfg.builds" in
  if builds1 <> builds0 then
    fail "warm loops request rebuilt the graph (%d -> %d)" builds0 builds1;

  (* "nodes": "auto" analyzes exactly the report's probe cover. *)
  let auto =
    Tool.Server.Client.request c
      (Tool.Json.Obj
         [ ("cmd", Tool.Json.Str "analyze");
           ("mode", Tool.Json.Str "all-nodes");
           ("nodes", Tool.Json.Str "auto");
           ("deck_text", Tool.Json.Str ring_text);
           ("name", Tool.Json.Str "ring.sp") ])
  in
  expect_ok auto;
  (match Tool.Json.to_list (mem "nodes" auto) with
   | Some [ entry ] ->
     (match Tool.Json.mem_str "node" entry with
      | Some "a" -> ()
      | n ->
        fail "auto probed %s, wanted the cover net a"
          (Option.value ~default:"<absent>" n))
   | Some l -> fail "auto probed %d nets, wanted the 1-net cover" (List.length l)
   | None -> fail "auto analyze returned no node list");

  (* The kernel backend over the wire: the cold request compiles exactly
     one kernel, the warm repeat answers from the cache with zero
     recompiles, and the answers are byte-identical to the plan-backed
     default run — the kernel is bit-identical by construction. *)
  let kernel_req =
    Tool.Json.Obj
      (("mode", Tool.Json.Str "all-nodes")
       :: ("backend", Tool.Json.Str "kernel")
       :: analyze_fields)
  in
  let compiles0 = counter c "kernel.compiles" in
  let kcold = Tool.Server.Client.request c kernel_req in
  expect_ok kcold;
  expect_cache "miss" kcold;
  let compiles1 = counter c "kernel.compiles" in
  if compiles1 <> compiles0 + 1 then
    fail "cold kernel request compiled %d kernels, wanted 1"
      (compiles1 - compiles0);
  let kwarm = Tool.Server.Client.request c kernel_req in
  expect_ok kwarm;
  expect_cache "hit" kwarm;
  let compiles2 = counter c "kernel.compiles" in
  if compiles2 <> compiles1 then
    fail "warm kernel request recompiled (%d -> %d)" compiles1 compiles2;
  let bytes field j = Tool.Json.to_string (mem field j) in
  if bytes "nodes" kcold <> bytes "nodes" kwarm then
    fail "warm kernel nodes differ from cold";
  if bytes "nodes" kcold <> bytes "nodes" cold then
    fail "kernel-backend nodes differ from the plan-backed default";
  (* An unknown backend name is a usage error (exit-code contract 2),
     not a crash. "sparse" names a backend that no longer exists. *)
  List.iter
    (fun name ->
      let bogus =
        Tool.Server.Client.request c
          (Tool.Json.Obj
             (("mode", Tool.Json.Str "all-nodes")
              :: ("backend", Tool.Json.Str name)
              :: analyze_fields))
      in
      (match Tool.Json.mem_bool "ok" bogus with
       | Some false -> ()
       | _ ->
         fail "bogus backend %S accepted: %s" name
           (Tool.Json.to_string bogus));
      match
        Option.bind (Tool.Json.member "error" bogus)
          (Tool.Json.mem_int "code")
      with
      | Some 2 -> ()
      | cd ->
        fail "bogus backend %S error code %d, wanted the usage code 2" name
          (Option.value ~default:(-1) cd))
    [ "warp"; "sparse" ];

  (* The lint gate runs on memoized findings: a deck with one lint
     warning passes non-strict, and re-sent with "strict" it blocks
     with code 4 and the same findings as a cold strict request; under
     "no_lint" nothing is gated or reported, while the manifest still
     records the warning. *)
  let warn_text =
    "warn tank\nR1 n 0 100\nL1 n 0 1u\nC1 n 0 1n\nR2 n m 1k\n\
     C2 m 0 0.5\n.end\n"
  in
  let warn_req ?(extra = []) text =
    Tool.Json.Obj
      ([ ("cmd", Tool.Json.Str "analyze");
         ("mode", Tool.Json.Str "single-node");
         ("node", Tool.Json.Str "n");
         ("deck_text", Tool.Json.Str text);
         ("name", Tool.Json.Str "warn.sp") ]
       @ extra)
  in
  let strict = [ ("strict", Tool.Json.Bool true) ] in
  let blocked j =
    match
      Option.bind (Tool.Json.member "error" j) (Tool.Json.mem_int "code")
    with
    | Some 4 -> Tool.Json.to_string (mem "findings" (mem "error" j))
    | _ -> fail "expected a code-4 lint block: %s" (Tool.Json.to_string j)
  in
  let lax = Tool.Server.Client.request c (warn_req warn_text) in
  expect_ok lax;
  let warm_strict =
    blocked (Tool.Server.Client.request c (warn_req ~extra:strict warn_text))
  in
  let cold_strict =
    blocked
      (Tool.Server.Client.request c
         (warn_req ~extra:strict (warn_text ^ "* a new text, linted cold\n")))
  in
  if warm_strict <> cold_strict then
    fail "memoized strict findings %s differ from cold %s" warm_strict
      cold_strict;
  let quiet =
    Tool.Server.Client.request c
      (warn_req ~extra:(("no_lint", Tool.Json.Bool true) :: strict) warn_text)
  in
  expect_ok quiet;
  if Tool.Json.member "error" quiet <> None then
    fail "no_lint request reported findings: %s" (Tool.Json.to_string quiet);
  (match
     Option.bind
       (Tool.Json.member "lint" (mem "manifest" quiet))
       (Tool.Json.mem_int "warnings")
   with
   | Some 1 -> ()
   | _ -> fail "manifest lint section lost the warning under no_lint");

  (* stats: every cache family reports occupancy next to its traffic. *)
  let stats =
    Tool.Server.Client.request c
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "stats") ])
  in
  expect_ok stats;
  let cache_stats = mem "cache" stats in
  List.iter
    (fun fam ->
      match Tool.Json.member fam cache_stats with
      | None -> fail "stats reply lacks the %s cache family" fam
      | Some f ->
        List.iter
          (fun field ->
            if Tool.Json.mem_int field f = None then
              fail "stats %s family lacks %S" fam field)
          [ "entries"; "capacity"; "hits"; "misses"; "evictions" ])
    [ "deck"; "op"; "plan"; "kernel"; "result"; "sfg" ];
  (match Option.bind (Tool.Json.member "kernel" cache_stats)
           (Tool.Json.mem_int "entries") with
   | Some n when n >= 1 -> ()
   | _ ->
     fail "kernel family shows no resident entries after kernel requests");
  (match Option.bind (Tool.Json.member "sfg" cache_stats)
           (Tool.Json.mem_int "entries") with
   | Some n when n >= 1 -> ()
   | _ -> fail "sfg family shows no resident entries after loops requests");

  (* A second daemon on the live socket must refuse, not steal it. *)
  (match Tool.Server.serve ~socket:sock () with
   | () -> fail "second daemon took over the live socket"
   | exception Failure m ->
     let mentions sub =
       let n = String.length sub and len = String.length m in
       let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
       go 0
     in
     if not (mentions "already serving") then
       fail "second-daemon refusal unclear: %s" m);

  (* Clean shutdown: the loop exits and the socket file is removed. *)
  let bye =
    Tool.Server.Client.request c
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "shutdown") ])
  in
  expect_ok bye;
  Tool.Server.Client.close c;
  Thread.join server;
  if Sys.file_exists sock then fail "socket file survived shutdown";

  (* Stale-socket recovery: a socket file nobody answers (a crashed
     daemon's leftover) is unlinked and the new daemon starts. *)
  let stale = sock ^ ".stale" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  let server2 =
    Thread.create (fun () -> Tool.Server.serve ~socket:stale ()) ()
  in
  let rec connect_retry n =
    if n = 0 then fail "daemon never recovered the stale socket"
    else
      match Tool.Server.Client.connect stale with
      | c2 -> c2
      | exception _ ->
        Unix.sleepf 0.05;
        connect_retry (n - 1)
  in
  let c2 = connect_retry 200 in
  let pong2 =
    Tool.Server.Client.request c2
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ])
  in
  expect_ok pong2;
  let bye2 =
    Tool.Server.Client.request c2
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "shutdown") ])
  in
  expect_ok bye2;
  Tool.Server.Client.close c2;
  Thread.join server2;
  if Sys.file_exists stale then fail "stale socket path survived shutdown";

  print_endline
    "serve-smoke: OK (cold miss rendered once with 1 deck digest, warm \
     hit's answer line byte-identical and canonical with 1 deck hit, 0 \
     deck digests, 0 graph builds, 0 DC \
     re-solves, 0 symbolic re-analyses and 1 rendering stored, a \
     second hit with 0 renderings, \
     lint gate on memoized findings, 4 concurrent in-flight \
     requests, loops cold/warm with 0 graph rebuilds, nodes=auto cover \
     run, kernel backend cold/warm with 0 recompiles and plan-identical \
     bytes, per-family cache stats, live-socket refusal, stale-socket \
     recovery, clean shutdown)"
