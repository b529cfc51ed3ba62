(* Chrome trace-event JSON (the "JSON object format": {"traceEvents":[...]}).
   Spans become "X" complete events with microsecond ts/dur; the counter
   registry is appended as one "C" event per counter, stamped at the end
   of the trace so chrome://tracing and Perfetto show the final totals.
   Hand-rolled emission: values are only strings and ints, no JSON
   dependency needed. *)

let add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json_string.add_quoted buf k;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int v))
    args;
  Buffer.add_char buf '}'

let us_of_ns ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e3)

let add_span buf (e : Span.event) =
  Buffer.add_string buf "{\"name\":";
  Json_string.add_quoted buf e.name;
  Buffer.add_string buf ",\"cat\":\"acstab\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  Buffer.add_string buf (string_of_int e.tid);
  Buffer.add_string buf ",\"ts\":";
  Buffer.add_string buf (us_of_ns e.ts_ns);
  Buffer.add_string buf ",\"dur\":";
  Buffer.add_string buf (us_of_ns e.dur_ns);
  if e.args <> [] then begin
    Buffer.add_string buf ",\"args\":";
    add_args buf e.args
  end;
  Buffer.add_char buf '}'

let add_counter buf ~ts_ns (name, v) =
  Buffer.add_string buf "{\"name\":";
  Json_string.add_quoted buf name;
  Buffer.add_string buf ",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":";
  Buffer.add_string buf (us_of_ns ts_ns);
  Buffer.add_string buf ",\"args\":{\"value\":";
  Buffer.add_string buf (string_of_int v);
  Buffer.add_string buf "}}"

let add_float buf v =
  (* %.17g round-trips; shorter forms are fine for a trace viewer. *)
  Buffer.add_string buf (Printf.sprintf "%.6g" v)

let add_histogram buf ~ts_ns (name, (s : Histogram.summary)) =
  Buffer.add_string buf "{\"name\":";
  Json_string.add_quoted buf ("hist:" ^ name);
  Buffer.add_string buf ",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":";
  Buffer.add_string buf (us_of_ns ts_ns);
  Buffer.add_string buf ",\"args\":{\"count\":";
  Buffer.add_string buf (string_of_int s.count);
  Buffer.add_string buf ",\"p50\":";
  add_float buf s.p50;
  Buffer.add_string buf ",\"p90\":";
  add_float buf s.p90;
  Buffer.add_string buf ",\"p99\":";
  add_float buf s.p99;
  Buffer.add_string buf ",\"max\":";
  add_float buf s.max;
  Buffer.add_string buf "}}"

let to_string_events events =
  let counters = Counter.snapshot () in
  let end_ns =
    List.fold_left
      (fun acc (e : Span.event) -> max acc (e.ts_ns + e.dur_ns))
      (Clock.now_ns ()) events
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
     \"args\":{\"name\":\"acstab\"}}";
  List.iter
    (fun e ->
      Buffer.add_char buf ',';
      add_span buf e)
    events;
  List.iter
    (fun kv ->
      Buffer.add_char buf ',';
      add_counter buf ~ts_ns:end_ns kv)
    counters;
  List.iter
    (fun h ->
      Buffer.add_char buf ',';
      add_histogram buf ~ts_ns:end_ns h)
    (Histogram.snapshot ());
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let to_string () = to_string_events (Span.events ())

let write_events path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string_events events))

let write path = write_events path (Span.events ())
