(* The observability layer: counters, spans, trace export, metrics
   aggregation. These run in one process sharing the global registry, so
   every test starts from a clean slate via reset/clear and leaves
   tracing disabled. *)

let reset_all () =
  Obs.Span.disable ();
  Obs.Span.clear ();
  Obs.Counter.reset ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Minor words allocated by 10 000 calls of [f]. Instrumentation that is
   off must cost nothing on the per-frequency solve path; the checks
   allow 256 words for the boxed floats [Gc.minor_words] returns. *)
let minor_words_10k f =
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  Gc.minor_words () -. w0

(* ---------- counters ---------- *)

let test_counter_basics () =
  reset_all ();
  let c = Obs.Counter.make "test.basic" in
  Alcotest.(check string) "name" "test.basic" (Obs.Counter.name c);
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  (* make is idempotent: same name, same cell. *)
  let c' = Obs.Counter.make "test.basic" in
  Obs.Counter.incr c';
  Alcotest.(check int) "same counter through re-make" 43
    (Obs.Counter.value c);
  Alcotest.(check bool) "find sees it" true
    (match Obs.Counter.find "test.basic" with
     | Some f -> Obs.Counter.value f = 43
     | None -> false);
  Alcotest.(check bool) "find does not create" true
    (Obs.Counter.find "test.never-made" = None);
  Alcotest.(check bool) "snapshot lists it" true
    (List.mem ("test.basic", 43) (Obs.Counter.snapshot ()));
  Obs.Counter.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c)

let test_counter_record_max () =
  reset_all ();
  let c = Obs.Counter.make "test.hwm" in
  Obs.Counter.record_max c 7;
  Obs.Counter.record_max c 3;
  Alcotest.(check int) "keeps high water" 7 (Obs.Counter.value c);
  Obs.Counter.record_max c 11;
  Alcotest.(check int) "raises on new max" 11 (Obs.Counter.value c)

let test_counter_parallel () =
  (* Atomic increments from several domains must not lose updates. *)
  reset_all ();
  let c = Obs.Counter.make "test.par" in
  let per_domain = 10_000 and n_domains = 4 in
  let ds =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (per_domain * n_domains)
    (Obs.Counter.value c)

(* ---------- spans ---------- *)

let test_span_disabled_is_silent () =
  reset_all ();
  Alcotest.(check bool) "disabled by default" false (Obs.Span.enabled ());
  let t0 = Obs.Span.enter () in
  Alcotest.(check int) "enter yields 0 when off" 0 t0;
  Obs.Span.leave "off" t0;
  ignore (Obs.Span.with_ "off2" (fun () -> 1 + 1));
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Obs.Span.drain ()));
  let words =
    minor_words_10k (fun () -> Obs.Span.leave "off" (Obs.Span.enter ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "10 000 spans allocate nothing (%.0f words)" words)
    true (words < 256.)

let test_span_records_when_enabled () =
  reset_all ();
  Obs.Span.enable ();
  let t0 = Obs.Span.enter () in
  Obs.Span.leave ~args:[ ("points", 5) ] "outer" t0;
  let v = Obs.Span.with_ "inner" (fun () -> 42) in
  Obs.Span.disable ();
  Alcotest.(check int) "with_ passes the result through" 42 v;
  let events = Obs.Span.drain () in
  Alcotest.(check int) "two spans" 2 (List.length events);
  let outer =
    List.find (fun e -> e.Obs.Span.name = "outer") events
  in
  Alcotest.(check bool) "args kept" true
    (outer.Obs.Span.args = [ ("points", 5) ]);
  Alcotest.(check bool) "duration non-negative" true
    (List.for_all (fun e -> e.Obs.Span.dur_ns >= 0) events);
  Obs.Span.clear ();
  Alcotest.(check int) "clear discards" 0 (List.length (Obs.Span.drain ()))

let test_span_records_on_exception () =
  reset_all ();
  Obs.Span.enable ();
  (try ignore (Obs.Span.with_ "failing" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Obs.Span.disable ();
  Alcotest.(check bool) "span recorded despite the raise" true
    (List.exists
       (fun e -> e.Obs.Span.name = "failing")
       (Obs.Span.drain ()))

let test_span_multi_domain_drain () =
  reset_all ();
  Obs.Span.enable ();
  let ds =
    List.init 3 (fun k ->
        Domain.spawn (fun () ->
            Obs.Span.with_ (Printf.sprintf "worker%d" k) (fun () -> ())))
  in
  List.iter Domain.join ds;
  Obs.Span.with_ "main" (fun () -> ());
  Obs.Span.disable ();
  let events = Obs.Span.drain () in
  Alcotest.(check int) "all domains drained" 4 (List.length events);
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Span.tid) events)
  in
  Alcotest.(check bool) "distinct domain ids" true (List.length tids >= 2);
  let ts = List.map (fun e -> e.Obs.Span.ts_ns) events in
  Alcotest.(check bool) "sorted by start time" true
    (List.sort compare ts = ts)

(* ---------- trace export ---------- *)

let test_trace_json_shape () =
  reset_all ();
  Obs.Span.enable ();
  Obs.Span.with_ ~args:[ ("nets", 2) ] "sweep \"x\"\n" (fun () -> ());
  Obs.Span.disable ();
  Obs.Counter.add (Obs.Counter.make "test.trace") 9;
  let text = Obs.Trace.to_string () in
  Alcotest.(check bool) "object format" true
    (String.length text >= 16 && String.sub text 0 16 = "{\"traceEvents\":[");
  Alcotest.(check bool) "complete event" true (contains text "\"ph\":\"X\"");
  Alcotest.(check bool) "counter event" true
    (contains text "\"name\":\"test.trace\",\"ph\":\"C\"");
  Alcotest.(check bool) "counter value" true (contains text "\"value\":9");
  Alcotest.(check bool) "span args exported" true (contains text "\"nets\":2");
  (* The quote and newline in the span name must be escaped, never raw. *)
  Alcotest.(check bool) "escaped quote" true (contains text "sweep \\\"x\\\"");
  Alcotest.(check bool) "escaped newline" true (contains text "\\n");
  (* Valid enough for a strict parser: balanced braces/brackets outside
     strings. *)
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !escaped then escaped := false
      else if !in_str then begin
        if ch = '\\' then escaped := true else if ch = '"' then in_str := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    text;
  Alcotest.(check int) "balanced structure" 0 !depth;
  Alcotest.(check bool) "not inside a string at EOF" false !in_str

let test_trace_write_roundtrip () =
  reset_all ();
  Obs.Span.enable ();
  Obs.Span.with_ "roundtrip" (fun () -> ());
  Obs.Span.disable ();
  let path = Filename.temp_file "acstab_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.write path;
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* Counter events are stamped at serialisation time, so byte
         equality with a later to_string doesn't hold; check shape and
         content instead. *)
      Alcotest.(check bool) "object format" true
        (String.length text >= 16
         && String.sub text 0 16 = "{\"traceEvents\":[");
      Alcotest.(check bool) "span present" true
        (contains text "\"name\":\"roundtrip\""))

(* One traced all-nodes run of the op-amp: the trace it writes must
   carry the plan-reuse budget (one symbolic analysis for the whole
   coarse + refine pipeline) and the pipeline's spans. *)
let test_trace_all_nodes_budget () =
  reset_all ();
  let circ = Workloads.Opamp_2mhz.buffer () in
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 10;
      refine_per_decade = 120 }
  in
  Obs.Span.enable ();
  let results =
    Fun.protect ~finally:Obs.Span.disable (fun () ->
        Stability.Analysis.all_nodes ~options circ)
  in
  Alcotest.(check bool) "nets analysed" true (results <> []);
  let path = Filename.temp_file "acstab_trace" ".json" in
  let text =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Obs.Trace.write path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let events =
    match Tool.Json.of_string text with
    | Error e -> Alcotest.failf "trace is not JSON: %s" e
    | Ok json ->
      Option.value ~default:[]
        (Option.bind (Tool.Json.member "traceEvents" json) Tool.Json.to_list)
  in
  let named ph name =
    List.filter
      (fun e ->
        Tool.Json.mem_str "name" e = Some name
        && Tool.Json.mem_str "ph" e = Some ph)
      events
  in
  (match named "C" "acplan.symbolic" with
   | [ e ] ->
     Alcotest.(check (option int)) "one symbolic analysis per run" (Some 1)
       (Option.bind (Tool.Json.member "args" e) (Tool.Json.mem_int "value"))
   | l -> Alcotest.failf "%d acplan.symbolic counter events" (List.length l));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true (named "X" name <> []))
    [ "mna.compile"; "dc.op"; "acplan.compile"; "probe.sweep";
      "analysis.coarse"; "analysis.zoom" ]

(* ---------- histograms ---------- *)

let test_histogram_buckets () =
  (* The log-bucket layout must be monotone and self-consistent: a
     bucket's representative value maps back to that bucket. *)
  let last = ref (-1) in
  for i = 0 to 63 do
    let v = Obs.Histogram.value_of i in
    Alcotest.(check int) (Printf.sprintf "roundtrip bucket %d" i) i
      (Obs.Histogram.bucket_of v);
    Alcotest.(check bool) "monotone" true (i > !last);
    last := i
  done;
  Alcotest.(check int) "non-positive -> lowest" 0
    (Obs.Histogram.bucket_of (-1.));
  Alcotest.(check int) "zero -> lowest" 0 (Obs.Histogram.bucket_of 0.);
  Alcotest.(check int) "nan -> highest" 63 (Obs.Histogram.bucket_of Float.nan);
  Alcotest.(check int) "huge -> highest" 63 (Obs.Histogram.bucket_of 1e300)

let test_histogram_summary () =
  Obs.Histogram.reset ();
  let h = Obs.Histogram.make "test.hist" in
  Alcotest.(check bool) "registry idempotent" true
    (Obs.Histogram.make "test.hist" == h);
  let s0 = Obs.Histogram.summary h in
  Alcotest.(check int) "empty count" 0 s0.Obs.Histogram.count;
  (* 90 samples at ~1e-6 and 10 at ~1e2: p50 must sit in the low mode,
     p99 in the high one, and max is exact (not bucket-quantised). *)
  for _ = 1 to 90 do
    Obs.Histogram.observe h 1.3e-6
  done;
  for _ = 1 to 10 do
    Obs.Histogram.observe h 137.
  done;
  let s = Obs.Histogram.summary h in
  Alcotest.(check int) "count" 100 s.Obs.Histogram.count;
  Alcotest.(check bool) "p50 in low mode" true
    (s.Obs.Histogram.p50 > 1e-7 && s.Obs.Histogram.p50 < 1e-5);
  Alcotest.(check bool) "p99 in high mode" true
    (s.Obs.Histogram.p99 > 10. && s.Obs.Histogram.p99 < 1e4);
  Alcotest.(check (float 0.)) "max exact" 137. s.Obs.Histogram.max;
  Alcotest.(check bool) "snapshot lists it" true
    (List.mem_assoc "test.hist" (Obs.Histogram.snapshot ()));
  Obs.Histogram.reset ();
  Alcotest.(check int) "reset zeroes" 0
    (Obs.Histogram.summary h).Obs.Histogram.count

let test_histogram_parallel () =
  (* Concurrent observation from several domains must not lose samples
     (bins are atomic, max is a CAS loop). *)
  Obs.Histogram.reset ();
  let h = Obs.Histogram.make "test.hist.par" in
  let per_domain = 10_000 and n_domains = 4 in
  let ds =
    List.init n_domains (fun k ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Histogram.observe h (float_of_int ((k * per_domain) + i))
            done))
  in
  List.iter Domain.join ds;
  let s = Obs.Histogram.summary h in
  Alcotest.(check int) "no lost samples" (per_domain * n_domains)
    s.Obs.Histogram.count;
  Alcotest.(check (float 0.)) "max survives the race"
    (float_of_int (n_domains * per_domain))
    s.Obs.Histogram.max;
  Obs.Histogram.reset ()

let test_histogram_merge () =
  Obs.Histogram.reset ();
  let a = Obs.Histogram.make "test.merge.a" in
  let b = Obs.Histogram.make "test.merge.b" in
  for _ = 1 to 30 do
    Obs.Histogram.observe a 1.0
  done;
  for _ = 1 to 10 do
    Obs.Histogram.observe b 250.
  done;
  Obs.Histogram.merge ~into:a b;
  let s = Obs.Histogram.summary a in
  Alcotest.(check int) "counts add" 40 s.Obs.Histogram.count;
  Alcotest.(check (float 0.)) "max carried over" 250. s.Obs.Histogram.max;
  Alcotest.(check bool) "p50 still in the dominant mode" true
    (s.Obs.Histogram.p50 > 0.1 && s.Obs.Histogram.p50 < 10.);
  Alcotest.(check bool) "p99 from the merged-in tail" true
    (s.Obs.Histogram.p99 > 50.);
  (* src is untouched and self-merge must not double anything. *)
  Alcotest.(check int) "src unchanged" 10
    (Obs.Histogram.summary b).Obs.Histogram.count;
  Obs.Histogram.merge ~into:a a;
  Alcotest.(check int) "self-merge is a no-op" 40
    (Obs.Histogram.summary a).Obs.Histogram.count;
  Obs.Histogram.reset ()

let test_histogram_snapshot_under_add () =
  (* summary/snapshot taken while another domain observes must stay
     internally consistent (count never exceeds what was published,
     percentiles within the observed range) and never crash. *)
  Obs.Histogram.reset ();
  let h = Obs.Histogram.make "test.snap.par" in
  let total = 50_000 in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to total do
          Obs.Histogram.observe h (float_of_int i)
        done)
  in
  let last = ref 0 in
  for _ = 1 to 200 do
    let s = Obs.Histogram.summary h in
    Alcotest.(check bool) "count monotone under race" true
      (s.Obs.Histogram.count >= !last);
    last := s.Obs.Histogram.count;
    Alcotest.(check bool) "count bounded" true
      (s.Obs.Histogram.count <= total);
    if s.Obs.Histogram.count > 0 then begin
      Alcotest.(check bool) "max within range" true
        (s.Obs.Histogram.max <= float_of_int total);
      Alcotest.(check bool) "p99 plausible" true
        (s.Obs.Histogram.p99 >= 0.)
    end
  done;
  Domain.join writer;
  Alcotest.(check int) "all samples landed" total
    (Obs.Histogram.summary h).Obs.Histogram.count;
  Obs.Histogram.reset ()

(* ---------- prometheus exposition ---------- *)

let test_prometheus_golden () =
  (* Fixed registry -> byte-exact exposition. Covers the three metric
     kinds, the *_ns -> *_ms unit conversion and name sanitisation. *)
  let summary =
    { Obs.Histogram.count = 4; p50 = 1.; p90 = 2.; p99 = 4.; max = 4.5 }
  in
  let text =
    Obs.Prometheus.render
      ~counters:[ ("pool.lock_wait_ns", 2_500_000); ("server.requests", 7) ]
      ~gauges:[ ("cache.probe.entries", 12.) ]
      ~histograms:[ ("server.request_ms", summary) ]
      ()
  in
  let expected =
    String.concat "\n"
      [ "# TYPE acstab_pool_lock_wait_ms_total counter";
        "acstab_pool_lock_wait_ms_total 2.5";
        "# TYPE acstab_server_requests_total counter";
        "acstab_server_requests_total 7";
        "# TYPE acstab_cache_probe_entries gauge";
        "acstab_cache_probe_entries 12";
        "# TYPE acstab_server_request_ms summary";
        "acstab_server_request_ms{quantile=\"0.5\"} 1";
        "acstab_server_request_ms{quantile=\"0.9\"} 2";
        "acstab_server_request_ms{quantile=\"0.99\"} 4";
        "acstab_server_request_ms_count 4";
        "# TYPE acstab_server_request_ms_max gauge";
        "acstab_server_request_ms_max 4.5";
        "" ]
  in
  Alcotest.(check string) "golden exposition" expected text

let test_prometheus_parse_roundtrip () =
  let summary =
    { Obs.Histogram.count = 3; p50 = 0.25; p90 = 0.5; p99 = 0.5; max = 0.75 }
  in
  let text =
    Obs.Prometheus.render
      ~counters:[ ("server.requests", 11) ]
      ~gauges:[ ("pool.busy_workers", 2.) ]
      ~histograms:[ ("server.request_ms", summary) ]
      ()
  in
  match Obs.Prometheus.parse text with
  | Error e -> Alcotest.failf "render output rejected by parse: %s" e
  | Ok samples ->
    let find ?labels name = Obs.Prometheus.find ?labels name samples in
    Alcotest.(check (option (float 0.))) "counter" (Some 11.)
      (find "acstab_server_requests_total");
    Alcotest.(check (option (float 0.))) "gauge" (Some 2.)
      (find "acstab_pool_busy_workers");
    Alcotest.(check (option (float 0.))) "quantile row" (Some 0.25)
      (find ~labels:[ ("quantile", "0.5") ] "acstab_server_request_ms");
    Alcotest.(check (option (float 0.))) "count row" (Some 3.)
      (find "acstab_server_request_ms_count");
    Alcotest.(check (option (float 0.))) "max gauge" (Some 0.75)
      (find "acstab_server_request_ms_max");
    Alcotest.(check (option (float 0.))) "absent metric" None
      (find "acstab_never_made_total")

let test_prometheus_parse_rejects () =
  List.iter
    (fun bad ->
      match Obs.Prometheus.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed exposition: %S" bad
      | Error _ -> ())
    [ "9starts_with_digit 1\n"; "no_value\n"; "name{unterminated=\"x 1\n";
      "name bad_float\n" ]

(* ---------- events ---------- *)

let test_events_disarmed_and_ring () =
  Obs.Events.clear ();
  Alcotest.(check bool) "disarmed by default" false (Obs.Events.enabled ());
  Obs.Events.emit "quiet" [ ("k", Obs.Events.Int 1) ];
  Alcotest.(check int) "nothing kept when disarmed" 0
    (List.length (Obs.Events.recent ()));
  let words = minor_words_10k (fun () -> Obs.Events.emit "quiet" []) in
  Alcotest.(check bool)
    (Printf.sprintf "10 000 emits allocate nothing (%.0f words)" words)
    true (words < 256.);
  Obs.Events.enable_ring ();
  Obs.Events.emit "one" [ ("n", Obs.Events.Int 1) ];
  Obs.Events.emit ~level:Obs.Events.Warn "two" [];
  let evs = Obs.Events.recent () in
  Alcotest.(check int) "ring keeps both" 2 (List.length evs);
  Alcotest.(check bool) "oldest first" true
    ((List.nth evs 0).Obs.Events.name = "one"
     && (List.nth evs 1).Obs.Events.name = "two");
  Alcotest.(check bool) "sequence increases" true
    ((List.nth evs 0).Obs.Events.seq < (List.nth evs 1).Obs.Events.seq);
  Alcotest.(check bool) "level kept" true
    ((List.nth evs 1).Obs.Events.level = Obs.Events.Warn);
  Alcotest.(check int) "recent ~max trims from the old end" 1
    (List.length (Obs.Events.recent ~max:1 ()));
  Obs.Events.disable_ring ();
  Obs.Events.clear ();
  Alcotest.(check int) "clear drops history" 0
    (List.length (Obs.Events.recent ()))

let test_events_line_shape () =
  Obs.Events.enable_ring ();
  Obs.Events.clear ();
  Obs.Events.emit "req \"x\"\n"
    [ ("s", Obs.Events.Str "a\"b"); ("i", Obs.Events.Int (-3));
      ("f", Obs.Events.Float 1.5); ("b", Obs.Events.Bool true) ];
  let ev = List.hd (Obs.Events.recent ()) in
  let line = Obs.Events.line_of ev in
  Obs.Events.disable_ring ();
  Obs.Events.clear ();
  Alcotest.(check bool) "one line" true
    (not (String.contains line '\n'));
  Alcotest.(check bool) "header fields" true
    (contains line "\"ts_ns\":" && contains line "\"seq\":"
     && contains line "\"level\":\"info\"");
  Alcotest.(check bool) "name escaped" true
    (contains line "\"event\":\"req \\\"x\\\"\\n\"");
  Alcotest.(check bool) "string field escaped" true
    (contains line "\"s\":\"a\\\"b\"");
  Alcotest.(check bool) "int field" true (contains line "\"i\":-3");
  Alcotest.(check bool) "float field" true (contains line "\"f\":1.5");
  Alcotest.(check bool) "bool field" true (contains line "\"b\":true");
  (* And the whole line is JSON by the tool's own parser. *)
  Alcotest.(check bool) "line parses as a JSON object" true
    (String.length line > 0 && line.[0] = '{')

let test_events_sink_writes_ndjson () =
  let path = Filename.temp_file "acstab_events" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Events.to_file path;
      Obs.Events.emit "first" [ ("n", Obs.Events.Int 1) ];
      Obs.Events.emit "second" [];
      Obs.Events.close_sink ();
      Alcotest.(check bool) "sink detached disarms" false
        (Obs.Events.enabled ());
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "log.open + two events" 3 (List.length lines);
      Alcotest.(check bool) "first line announces the schema" true
        (contains (List.nth lines 0) "\"event\":\"log.open\""
         && contains (List.nth lines 0)
              (Printf.sprintf "\"schema\":\"%s\"" Obs.Events.schema));
      Alcotest.(check bool) "events in order" true
        (contains (List.nth lines 1) "\"event\":\"first\""
         && contains (List.nth lines 2) "\"event\":\"second\""))

let test_events_warn_once () =
  Obs.Events.reset_warnings ();
  Obs.Events.enable_ring ();
  Obs.Events.clear ();
  Alcotest.(check int) "unknown key never warned" 0
    (Obs.Events.warn_count "k1");
  Obs.Events.warn_once ~key:"k1" "first message";
  Obs.Events.warn_once ~key:"k1" "suppressed repeat";
  Obs.Events.warn_once ~key:"k1" "suppressed repeat";
  Obs.Events.warn_once ~key:"k2" "other key still fires";
  Alcotest.(check int) "repeats counted" 3 (Obs.Events.warn_count "k1");
  Alcotest.(check int) "independent keys" 1 (Obs.Events.warn_count "k2");
  let warns =
    List.filter
      (fun e -> e.Obs.Events.level = Obs.Events.Warn)
      (Obs.Events.recent ())
  in
  Alcotest.(check int) "one event per key, not per call" 2
    (List.length warns);
  Obs.Events.reset_warnings ();
  Obs.Events.warn_once ~key:"k1" "fires again after reset";
  Alcotest.(check int) "reset forgets" 1 (Obs.Events.warn_count "k1");
  Obs.Events.disable_ring ();
  Obs.Events.clear ();
  Obs.Events.reset_warnings ()

(* ---------- metrics ---------- *)

let test_metrics_rows () =
  reset_all ();
  Obs.Span.enable ();
  Obs.Span.with_ "agg" (fun () -> ());
  Obs.Span.with_ "agg" (fun () -> ());
  Obs.Span.with_ "other" (fun () -> ());
  Obs.Span.disable ();
  let rows = Obs.Metrics.rows () in
  Alcotest.(check int) "aggregated by name" 2 (List.length rows);
  let agg = List.find (fun r -> r.Obs.Metrics.name = "agg") rows in
  Alcotest.(check int) "count folded" 2 agg.Obs.Metrics.count;
  Alcotest.(check bool) "max <= total" true
    (agg.Obs.Metrics.max_ns <= agg.Obs.Metrics.total_ns);
  Obs.Counter.add (Obs.Counter.make "test.metrics") 3;
  let text = Format.asprintf "%a" Obs.Metrics.pp () in
  Alcotest.(check bool) "span table printed" true (contains text "agg");
  Alcotest.(check bool) "counter printed" true (contains text "test.metrics")

let test_metrics_empty () =
  reset_all ();
  let text = Format.asprintf "%a" Obs.Metrics.pp () in
  Alcotest.(check bool) "empty notice" true
    (contains text "no spans or counters recorded")

(* Regression: --trace FILE --metrics together. Both exporters must see
   the same spans from one [Span.events] snapshot — the old shape called
   a drain per consumer, so spans recorded between the two exports made
   the trace and the table disagree about the same run. *)
let test_snapshot_feeds_both_consumers () =
  reset_all ();
  Obs.Span.enable ();
  Obs.Span.with_ "both" (fun () -> ());
  Obs.Span.disable ();
  let events = Obs.Span.events () in
  let trace = Obs.Trace.to_string_events events in
  let metrics = Format.asprintf "%a" (Obs.Metrics.pp_events events) () in
  Alcotest.(check bool) "trace populated" true
    (contains trace "\"name\":\"both\"");
  Alcotest.(check bool) "metrics populated" true (contains metrics "both");
  (* [events] is non-destructive: a second snapshot still carries the
     span, so consumer order cannot matter. *)
  Alcotest.(check int) "snapshot non-destructive" 1
    (List.length (Obs.Span.events ()))

let test_metrics_domain_rollup () =
  reset_all ();
  Obs.Span.enable ();
  Obs.Span.with_ "main.work" (fun () -> ());
  let d =
    Domain.spawn (fun () -> Obs.Span.with_ "worker.work" (fun () -> ()))
  in
  Domain.join d;
  Obs.Span.disable ();
  let events = Obs.Span.events () in
  let rollup = Obs.Metrics.domain_rows_of events in
  Alcotest.(check int) "one row per domain" 2 (List.length rollup);
  List.iter
    (fun (_, count, busy) ->
      Alcotest.(check int) "span count" 1 count;
      Alcotest.(check bool) "busy time recorded" true (busy >= 0))
    rollup;
  let text = Format.asprintf "%a" (Obs.Metrics.pp_events events) () in
  Alcotest.(check bool) "rollup printed for multi-domain runs" true
    (contains text "domain ")

(* A pooled all-nodes sweep with tracing on: every worker domain's
   chunks must land in the Chrome trace under its own [tid], and the
   spans of each domain must be well nested (a lane with partially
   overlapping spans renders as garbage in a trace viewer). *)
let test_pooled_trace_multi_domain () =
  reset_all ();
  (* Oversubscribe so real worker domains exist even on a single-core
     host — the production clamp would otherwise run `Par` inline and
     the trace would carry one lane only. *)
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs 4;
  let circ = Workloads.Ladder.rc ~sections:30 () in
  let probe = Stability.Probe.prepare circ in
  Obs.Span.enable ();
  let options =
    { Stability.Analysis.default_options with
      refine = false;
      parallel = `Par;
      sweep = Numerics.Sweep.decade 1e3 1e7 40 }
  in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Parallel.Pool.set_oversubscribe false;
        Parallel.Pool.shutdown ())
      (fun () -> Stability.Analysis.all_nodes_prepared ~options probe)
  in
  Obs.Span.disable ();
  Alcotest.(check bool) "analysis produced results" true (results <> []);
  let events = Obs.Span.events () in
  let chunk_tids =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           if e.Obs.Span.name = "pool.chunk" then Some e.Obs.Span.tid
           else None)
         events)
  in
  Alcotest.(check bool) "chunks on several domains" true
    (List.length chunk_tids >= 2);
  (* Well-nestedness per domain: sorted by start, each next span either
     starts after the previous ends or lies entirely within it. *)
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Span.tid) events)
  in
  List.iter
    (fun tid ->
      let lane =
        List.filter (fun e -> e.Obs.Span.tid = tid) events
        |> List.map (fun e ->
               (e.Obs.Span.ts_ns, e.Obs.Span.ts_ns + e.Obs.Span.dur_ns))
        |> List.sort compare
      in
      let rec well_nested open_stack = function
        | [] -> true
        | (s, e) :: rest ->
          let stack =
            List.filter (fun (_, e') -> e' > s) open_stack
          in
          (match stack with
           | (_, e') :: _ when e > e' -> false (* partial overlap *)
           | _ -> well_nested ((s, e) :: stack) rest)
      in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d spans well nested" tid)
        true (well_nested [] lane))
    tids;
  (* And the serialized trace carries the worker lanes. *)
  let trace = Obs.Trace.to_string_events events in
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "trace has tid %d" tid)
        true
        (contains trace (Printf.sprintf "\"tid\":%d" tid)))
    chunk_tids

let () =
  Alcotest.run "obs"
    [ ("counter",
       [ Alcotest.test_case "basics" `Quick test_counter_basics;
         Alcotest.test_case "record_max" `Quick test_counter_record_max;
         Alcotest.test_case "parallel increments" `Quick
           test_counter_parallel ]);
      ("span",
       [ Alcotest.test_case "disabled is silent" `Quick
           test_span_disabled_is_silent;
         Alcotest.test_case "records when enabled" `Quick
           test_span_records_when_enabled;
         Alcotest.test_case "records on exception" `Quick
           test_span_records_on_exception;
         Alcotest.test_case "multi-domain drain" `Quick
           test_span_multi_domain_drain ]);
      ("trace",
       [ Alcotest.test_case "json shape" `Quick test_trace_json_shape;
         Alcotest.test_case "write roundtrip" `Quick
           test_trace_write_roundtrip;
         Alcotest.test_case "traced all-nodes budget" `Quick
           test_trace_all_nodes_budget ]);
      ("histogram",
       [ Alcotest.test_case "bucket layout" `Quick test_histogram_buckets;
         Alcotest.test_case "summary percentiles" `Quick
           test_histogram_summary;
         Alcotest.test_case "parallel observe" `Quick
           test_histogram_parallel;
         Alcotest.test_case "merge" `Quick test_histogram_merge;
         Alcotest.test_case "snapshot under concurrent add" `Quick
           test_histogram_snapshot_under_add ]);
      ("prometheus",
       [ Alcotest.test_case "golden exposition" `Quick
           test_prometheus_golden;
         Alcotest.test_case "parse roundtrip" `Quick
           test_prometheus_parse_roundtrip;
         Alcotest.test_case "parse rejects malformed" `Quick
           test_prometheus_parse_rejects ]);
      ("events",
       [ Alcotest.test_case "disarmed + ring" `Quick
           test_events_disarmed_and_ring;
         Alcotest.test_case "line shape" `Quick test_events_line_shape;
         Alcotest.test_case "sink writes ndjson" `Quick
           test_events_sink_writes_ndjson;
         Alcotest.test_case "warn once" `Quick test_events_warn_once ]);
      ("metrics",
       [ Alcotest.test_case "rows" `Quick test_metrics_rows;
         Alcotest.test_case "empty" `Quick test_metrics_empty;
         Alcotest.test_case "one snapshot, both consumers" `Quick
           test_snapshot_feeds_both_consumers;
         Alcotest.test_case "domain rollup" `Quick
           test_metrics_domain_rollup;
         Alcotest.test_case "pooled trace multi-domain" `Quick
           test_pooled_trace_multi_domain ]) ]
