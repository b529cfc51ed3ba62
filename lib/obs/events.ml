(* Structured event log: the service-side complement of spans.

   Spans answer "where did the time go inside one process lifetime";
   a long-running daemon also needs a durable, per-occurrence record —
   one line per request, per warning, per lifecycle transition — that
   an operator can tail, grep and parse. Events are that record:
   monotonic-timestamped, levelled, key=value structured, serialised
   as NDJSON (schema [acstab-log/1], one self-contained JSON object
   per line).

   Cost discipline mirrors {!Span}: emission is guarded by one atomic
   load, so an instrumented hot path with no sink configured and the
   ring disabled pays nothing and allocates nothing (asserted in the
   test suite alongside the disabled-span budget). When enabled,
   every event lands in a fixed-size lock-free ring (recent history
   for in-process consumers) and, if a sink is attached, is written
   through as one NDJSON line under a mutex — sinks are line-buffered
   I/O, not a hot path.

   The warn-once helper lives here too: subsystem warnings (invalid
   environment knobs, degraded fallbacks) print to stderr exactly once
   per key and are recorded as [Warn] events, replacing ad-hoc
   [Printf.eprintf] call sites that could repeat per call. *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  seq : int;
  ts_ns : int;
  level : level;
  name : string;
  fields : (string * value) list;
}

let schema = "acstab-log/1"

(* ---- NDJSON rendering ---- *)

let add_value b = function
  | Str s -> Json_string.add_quoted b s
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
    else Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let line_of e =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"ts_ns\":%d,\"seq\":%d" e.ts_ns e.seq);
  Buffer.add_string b (Printf.sprintf ",\"level\":%S" (level_name e.level));
  Buffer.add_string b ",\"event\":";
  Json_string.add_quoted b e.name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Json_string.add_quoted b k;
      Buffer.add_char b ':';
      add_value b v)
    e.fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- state ---- *)

(* True iff emission must do work: the ring is switched on or a sink
   is attached. The only thing the disabled fast path reads. *)
let armed = Atomic.make false

let ring_size = 1024
let ring : event option array = Array.make ring_size None
let ring_on = Atomic.make false

(* Next ring slot; also the event sequence number. Writers claim a slot
   with fetch-and-add and store without a lock — a torn read by [recent]
   during a wrap can at worst surface a stale event, which is fine for a
   diagnostic ring. *)
let cursor = Atomic.make 0

let sink : out_channel option ref = ref None
let sink_mutex = Mutex.create ()

let rearm () = Atomic.set armed (Atomic.get ring_on || !sink <> None)

let enabled () = Atomic.get armed

let enable_ring () =
  Atomic.set ring_on true;
  rearm ()

let disable_ring () =
  Atomic.set ring_on false;
  rearm ()

let emit_unguarded level name fields =
  let seq = Atomic.fetch_and_add cursor 1 in
  let e = { seq; ts_ns = Clock.now_ns (); level; name; fields } in
  if Atomic.get ring_on then ring.(seq mod ring_size) <- Some e;
  Mutex.lock sink_mutex;
  (match !sink with
   | Some oc ->
     (try
        output_string oc (line_of e);
        output_char oc '\n';
        flush oc
      with Sys_error _ -> ())
   | None -> ());
  Mutex.unlock sink_mutex

let emit ?(level = Info) name fields =
  if Atomic.get armed then emit_unguarded level name fields

let recent ?(max = ring_size) () =
  (* Oldest-first snapshot of the ring. Reads race with writers by
     design; order by sequence number repairs any interleaving. *)
  let all =
    Array.fold_left
      (fun acc slot -> match slot with Some e -> e :: acc | None -> acc)
      [] ring
  in
  let sorted = List.sort (fun a b -> compare a.seq b.seq) all in
  let n = List.length sorted in
  if n <= max then sorted
  else List.filteri (fun i _ -> i >= n - max) sorted

let clear () =
  Array.fill ring 0 ring_size None

(* ---- sinks ---- *)

let set_sink oc =
  Mutex.lock sink_mutex;
  (match !sink with
   | Some old when Some old != oc -> (try close_out old with Sys_error _ -> ())
   | _ -> ());
  sink := oc;
  Mutex.unlock sink_mutex;
  rearm ();
  (* The first line of every log names the schema, so a reader can
     refuse a future format instead of misparsing it. *)
  if oc <> None then
    emit ~level:Info "log.open" [ ("schema", Str schema) ]

let to_file path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  set_sink (Some oc)

let close_sink () = set_sink None

(* ---- warn-once ---- *)

let seen : (string, int) Hashtbl.t = Hashtbl.create 8
let seen_mutex = Mutex.create ()

let warn_once ~key message =
  Mutex.lock seen_mutex;
  let n = Option.value ~default:0 (Hashtbl.find_opt seen key) in
  Hashtbl.replace seen key (n + 1);
  Mutex.unlock seen_mutex;
  if n = 0 then begin
    Printf.eprintf "%s\n%!" message;
    emit ~level:Warn "warn" [ ("key", Str key); ("message", Str message) ]
  end

let warn_count key =
  Mutex.lock seen_mutex;
  let n = Option.value ~default:0 (Hashtbl.find_opt seen key) in
  Mutex.unlock seen_mutex;
  n

let reset_warnings () =
  Mutex.lock seen_mutex;
  Hashtbl.reset seen;
  Mutex.unlock seen_mutex
