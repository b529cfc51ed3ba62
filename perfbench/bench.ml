(* perfbench — the repository's benchmark: whole acstab requests, end to
   end, and (with --trace 1) the cost of each layer on the way.

     sh perfbench/run.sh --workload cli_allnodes|serve_warm|serve_campaign|all
                         --seed N --seconds S --trace 0|1

   Run from the repository root. The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. The
   lines before it print the host block and every metric with its unit.
   DESIGN.md explains the workloads, the metrics and how they relate.

   The program under test always runs with one worker domain (-j 1):
   on a two-vCPU host whose vCPUs do not always run at the same time,
   OCaml's stop-the-world minor collections make two-domain runs flip
   between two speeds. For the same reason the benchmark and everything
   it starts share one CPU: a request handed between a client and the
   daemon on different vCPUs waits whenever the other vCPU is not
   running, which made serve_warm's p90 jump between 1.9 and 4.5 ms
   from run to run. *)

open Perfbench

let jobs = 1
let acstab = "_build/default/bin/acstab.exe"
let golden_path = "golden/opamp_allnodes.json"
let run_root = "perfbench/_run"

external wait4 : int -> int * float * int = "perfbench_wait4"
external clk_tck : unit -> int = "perfbench_clk_tck"
external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"

let now () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* ---- statistics ---- *)

(* Quantile with linear interpolation between order statistics. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = truncate pos in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ---- child processes ---- *)

(* Every child still running, and the run directories; on any exit
   path the children are killed and reaped, then the directories go. *)
let live = ref []
let scratch = ref []

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (wait4 pid) with Failure _ -> ())
        !live;
      live := [];
      List.iter remove_tree !scratch);
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* The children see no ACSTAB_* variable: an inherited ACSTAB_LOG or
   ACSTAB_JOBS would change what is measured. *)
let child_env =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"ACSTAB_" kv))
  |> Array.of_list

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn ?stderr args =
  let null = Lazy.force devnull in
  let err =
    match stderr with
    | Some path ->
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> null
  in
  let pid =
    Unix.create_process_env acstab
      (Array.of_list (acstab :: args))
      child_env null null err
  in
  if err != null then Unix.close err;
  live := pid :: !live;
  pid

(* (exit code, CPU seconds, peak RSS in KiB) of a finished child. *)
let reap pid =
  let r = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  r

(* User + system CPU seconds of a running child, from /proc. *)
let proc_cpu_s pid =
  let s =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  let after = String.rindex s ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s after (String.length s - after)))
  in
  (* Fields from the third ("state") on: utime is the 14th, stime the 15th. *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12))
  /. float_of_int (clk_tck ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ---- the serve protocol, client side ---- *)

type conn = { fd : Unix.file_descr; acc : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; acc = Buffer.create 65536; chunk = Bytes.create 65536 }
  | exception e ->
    Unix.close fd;
    raise e

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* One read from the socket; [Some line] once a whole line is in. *)
let read_some c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then die "the daemon closed the connection";
  let rec nl i = if i >= n then None else if Bytes.get c.chunk i = '\n' then Some i else nl (i + 1) in
  match nl 0 with
  | None ->
    Buffer.add_subbytes c.acc c.chunk 0 n;
    None
  | Some i ->
    Buffer.add_subbytes c.acc c.chunk 0 i;
    let line = Buffer.contents c.acc in
    Buffer.clear c.acc;
    Buffer.add_subbytes c.acc c.chunk (i + 1) (n - i - 1);
    Some line

let rec recv c = match read_some c with Some l -> l | None -> recv c

let parse line =
  match Tool.Json.of_string line with
  | Ok j -> j
  | Error e -> die "unparseable daemon answer (%s): %s" e line

let call c fields =
  send c (Tool.Json.to_string (Tool.Json.Obj fields));
  parse (recv c)

let cmd name = [ ("cmd", Tool.Json.Str name) ]

type daemon = { pid : int; ctl : conn; sock : string }

(* Spawn [acstab serve -j 1] and wait until it answers a ping. *)
let start_daemon ~dir ?log () =
  let sock = Filename.concat dir "d.sock" in
  let pid =
    spawn
      ([ "serve"; "-j"; string_of_int jobs; "--socket"; sock ]
       @ match log with Some l -> [ "--log"; l ] | None -> [])
  in
  let deadline = now () +. 30. in
  let rec attach () =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         live := List.filter (( <> ) pid) !live;
         die "acstab serve exited before answering");
      if now () > deadline then die "acstab serve did not come up";
      Unix.sleepf 0.001;
      attach ()
  in
  let ctl = attach () in
  (match Tool.Json.mem_bool "ok" (call ctl (cmd "ping")) with
   | Some true -> ()
   | _ -> die "ping failed");
  { pid; ctl; sock }

let counters d =
  match Tool.Json.member "counters" (call d.ctl (cmd "counters")) with
  | Some (Tool.Json.Obj kv) ->
    List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Tool.Json.to_float v)) kv
  | _ -> die "counters request failed"

(* Shut the daemon down; its peak RSS in KiB. *)
let stop_daemon d =
  (try ignore (call d.ctl (cmd "shutdown")) with _ -> ());
  Unix.close d.ctl.fd;
  let _, _, rss = reap d.pid in
  rss

let analyze_request ~name ~text ~mode =
  Tool.Json.to_string
    (Tool.Json.Obj
       ([ ("cmd", Tool.Json.Str "analyze"); ("name", Tool.Json.Str name);
          ("deck_text", Tool.Json.Str text) ]
        @
        match mode with
        | `All -> [ ("mode", Tool.Json.Str "all-nodes") ]
        | `Single n ->
          [ ("mode", Tool.Json.Str "single-node"); ("node", Tool.Json.Str n) ]))

(* ---- throughput and CPU per request ----

   A measured window is cut into [parts] equal parts. Throughput and CPU
   per request are medians over the parts, so a few seconds in which the
   host runs slow move them less than a mean over the window would. *)

let parts = 10

type meter = {
  start : float;
  part : float;           (* seconds per part *)
  count : int array;      (* completions per part *)
  first : float array;    (* first and last completion time per part *)
  last : float array;
  cpu : float array;      (* CPU seconds of the program under test per part *)
}

let meter ~seconds =
  { start = now (); part = seconds /. float_of_int parts;
    count = Array.make parts 0; first = Array.make parts nan;
    last = Array.make parts nan; cpu = Array.make parts 0. }

let part_of m t =
  max 0 (min (parts - 1) (int_of_float ((t -. m.start) /. m.part)))

(* One request completed at [t]; [cpu] is its own CPU time when known
   (a CLI child). *)
let complete ?(cpu = 0.) m t =
  let p = part_of m t in
  if m.count.(p) = 0 then m.first.(p) <- t;
  m.count.(p) <- m.count.(p) + 1;
  m.last.(p) <- t;
  m.cpu.(p) <- m.cpu.(p) +. cpu

(* A daemon's CPU per part: read from /proc when a completion opens a new
   part, and charged to the part the previous reading opened. Call the
   result after each completion, and with [~final:true] at the end. *)
let daemon_cpu m pid =
  let current = ref 0 and reading = ref (proc_cpu_s pid) in
  fun ?(final = false) t ->
    let p = part_of m t in
    if p <> !current || final then begin
      let r = proc_cpu_s pid in
      m.cpu.(!current) <- m.cpu.(!current) +. (r -. !reading);
      reading := r;
      current := p
    end

(* Each part's rate is timed from its first completion to its last, so
   it is not rounded to whole requests per part. *)
let throughput m =
  median
    (List.filter_map
       (fun p ->
         if m.count.(p) < 2 then None
         else Some (float_of_int (m.count.(p) - 1) /. (m.last.(p) -. m.first.(p))))
       (List.init parts Fun.id))

let cpu_per_request m =
  median
    (List.filter_map
       (fun p -> if m.count.(p) > 0 then Some (m.cpu.(p) /. float_of_int m.count.(p)) else None)
       (List.init parts Fun.id))

(* ---- measured request streams ---- *)

(* What one measured phase yields. [check] runs after the window and
   returns the number of failed requests. *)
type stream = {
  latencies : float list;     (* seconds, one per completed request *)
  meter : meter;
  rss_kb : int;               (* peak resident set of the program under test *)
  exit_failures : int;        (* non-zero exits (CLI) *)
  check : unit -> int;        (* failed requests by the correctness gate *)
  sweeps_par : float;         (* parallel sweeps the program reported *)
}

let counter name kv = Option.value ~default:0. (List.assoc_opt name kv)

(* cli_allnodes: one [acstab all-nodes -j 1 --manifest] process per
   request, closed loop. *)
let cli_request ~dir ~deck ?stderr ?(extra = []) () =
  let manifest = Filename.concat dir "m.json" in
  (try Sys.remove manifest with Sys_error _ -> ());
  let t0 = now () in
  let pid =
    spawn ?stderr
      ([ "all-nodes"; "-j"; string_of_int jobs; "--manifest"; manifest ]
       @ extra @ [ deck ])
  in
  let code, cpu, rss = reap pid in
  let dt = now () -. t0 in
  let text = if code = 0 then read_file manifest else "" in
  (dt, code, cpu, rss, text)

(* [extra] adds CLI flags; [after] sees each request's stderr file. *)
let cli_stream ~golden ~dir ~deck ~seconds ?extra ?(after = fun _ -> ()) () =
  let stderr = Filename.concat dir "stderr.txt" in
  let lat = ref [] and rss = ref 0 and bad_exit = ref 0 in
  let manifests = ref [] in
  let m = meter ~seconds in
  while now () -. m.start < seconds do
    let dt, code, cpu, r, text = cli_request ~dir ~deck ~stderr ?extra () in
    complete ~cpu m (now ());
    lat := dt :: !lat;
    rss := max !rss r;
    if code <> 0 then incr bad_exit else manifests := text :: !manifests;
    after stderr
  done;
  let parsed = List.map Tool.Manifest.of_json_string !manifests in
  let sweeps_par =
    List.fold_left
      (fun acc -> function
        | Ok (m : Tool.Manifest.t) ->
          acc +. float_of_int (Option.value ~default:0 (List.assoc_opt "probe.sweeps_par" m.counters))
        | Error _ -> acc)
      0. parsed
  in
  let check () =
    List.length
      (List.filter
         (function
           | Ok m -> Result.is_error (Gate.opamp_manifest ~golden m)
           | Error _ -> true)
         parsed)
  in
  { latencies = !lat; meter = m; rss_kb = !rss; exit_failures = !bad_exit;
    check; sweeps_par }

(* Blank a response's daemon-unique request id, so identical answers
   compare equal as strings. *)
let without_request_id line =
  let key = "\"request_id\":\"" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
    let j = String.index_from line (i + kl) '"' in
    String.sub line 0 (i + kl) ^ String.sub line j (String.length line - j)

(* serve_warm: one client repeating the identical all-nodes request;
   every answer must be a result-cache hit. Identical answers are
   checked once and the verdict counted for each. *)
let warm_stream ~golden ~daemon ~request ~deck_sha256 ~seconds =
  let c = daemon.ctl in
  let lat = ref [] and ids = ref [] and answers = Hashtbl.create 4 in
  let m = meter ~seconds in
  let cpu = daemon_cpu m daemon.pid in
  while now () -. m.start < seconds do
    let s = now () in
    send c request;
    let line = recv c in
    let j = parse line in
    let t = now () in
    lat := (t -. s) :: !lat;
    complete m t;
    cpu t;
    ids := Tool.Json.mem_str "request_id" j :: !ids;
    let k = without_request_id line in
    Hashtbl.replace answers k (1 + Option.value ~default:0 (Hashtbl.find_opt answers k))
  done;
  cpu ~final:true (now ());
  let check () =
    Hashtbl.fold
      (fun line n acc ->
        match Gate.warm_reply ~golden ~deck_sha256 (parse line) with
        | Ok () -> acc
        | Error e ->
          prerr_endline ("perfbench: serve_warm answer failed: " ^ e);
          acc + n)
      answers 0
  in
  (!lat, !ids, m, check)

(* Closed-loop clients on their own connections, multiplexed with
   select: each sends its next request as soon as its previous answer
   is parsed. [next ()] gives the next request (or [None] when there is
   none left); answers come back as (tag, latency, parsed answer) in
   completion order, each also passed to [on_done] with its completion
   time. Stops sending at [until]. *)
let closed_loop ?(on_done = fun _ -> ()) ~sock ~clients ~next ~until () =
  let conns = List.init clients (fun _ -> connect sock) in
  let inflight = Hashtbl.create 4 in
  let results = ref [] in
  let issue c =
    if now () < until then
      match next () with
      | Some (tag, line) ->
        Hashtbl.replace inflight c.fd (c, tag, now ());
        send c line
      | None -> ()
  in
  List.iter issue conns;
  while Hashtbl.length inflight > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) inflight [] in
    let ready, _, _ =
      try Unix.select fds [] [] (-1.)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let c, tag, s = Hashtbl.find inflight fd in
        match read_some c with
        | None -> ()
        | Some line ->
          let j = parse line in
          let t = now () in
          let dt = t -. s in
          on_done t;
          Hashtbl.remove inflight fd;
          results := (tag, dt, j) :: !results;
          issue c)
      ready
  done;
  List.iter (fun c -> Unix.close c.fd) conns;
  List.rev !results

let campaign_request ~deck i =
  analyze_request ~name:(Decks.variant_name i) ~text:(deck i)
    ~mode:(`Single Decks.campaign_node)

(* serve_campaign's cache fill: the first [capacity] variants, so that
   every measured request misses the result family and evicts. *)
let campaign_fill ~daemon ~deck ~capacity =
  let k = ref 0 in
  let next () =
    if !k >= capacity then None
    else begin
      let i = !k in
      incr k;
      Some (i, campaign_request ~deck i)
    end
  in
  let answers = closed_loop ~sock:daemon.sock ~clients:2 ~next ~until:infinity () in
  List.iter
    (fun (i, _, j) ->
      if Tool.Json.mem_bool "ok" j <> Some true then
        die "cache fill request %d failed: %s" i (Tool.Json.to_string j))
    answers

let campaign_stream ~daemon ~deck ~first ~seconds =
  let k = ref first in
  let next () =
    let i = !k in
    incr k;
    Some (i, campaign_request ~deck i)
  in
  let m = meter ~seconds in
  let cpu = daemon_cpu m daemon.pid in
  let answers =
    closed_loop ~sock:daemon.sock ~clients:2 ~next ~until:(m.start +. seconds)
      ~on_done:(fun t -> complete m t; cpu t) ()
  in
  cpu ~final:true (now ());
  let check () =
    List.length
      (List.filter
         (fun (i, _, j) ->
           match
             Gate.campaign_reply ~deck_text:(deck i)
               ~expected:(Decks.closed_form (deck i)) j
           with
           | Ok () -> false
           | Error e ->
             prerr_endline
               (Printf.sprintf "perfbench: serve_campaign variant %d failed: %s" i e);
             true)
         answers)
  in
  (answers, m, check)

(* ---- workloads ---- *)

type workload = Cli_allnodes | Serve_warm | Serve_campaign

let workload_name = function
  | Cli_allnodes -> "cli_allnodes"
  | Serve_warm -> "serve_warm"
  | Serve_campaign -> "serve_campaign"

let workloads = [ Cli_allnodes; Serve_warm; Serve_campaign ]

type e2e = {
  setup_s : float;
  stream : stream;
}

let capacity = Tool.Cache.default_capacity

(* Campaign decks by variant index, generated on first use; set-up
   generates the fill and as many as a window is expected to use, so
   the client seldom builds a deck between requests. *)
let campaign_decks ~seed ~seconds =
  let tbl = Hashtbl.create 1024 in
  let deck k =
    match Hashtbl.find_opt tbl k with
    | Some d -> d
    | None ->
      let d = Decks.variant ~seed k in
      Hashtbl.add tbl k d;
      d
  in
  for k = 0 to capacity + int_of_float (seconds *. 40.) do
    ignore (deck k)
  done;
  deck

let setup_rounds = 5

let run_cli ~golden ~dir ~seed ~seconds =
  let deck = Filename.concat dir Decks.opamp_name in
  (* Set-up: write the deck and run two unmeasured invocations; repeated
     so setup_s is a median. *)
  let setups =
    List.init setup_rounds (fun _ ->
        let t0 = now () in
        write_file deck (Decks.opamp ~seed);
        for _ = 1 to 2 do
          let _, code, _, _, _ = cli_request ~dir ~deck () in
          if code <> 0 then die "warm-up all-nodes run exited %d" code
        done;
        now () -. t0)
  in
  { setup_s = median setups; stream = cli_stream ~golden ~dir ~deck ~seconds () }

let opamp_request ~seed =
  analyze_request ~name:Decks.opamp_name ~text:(Decks.opamp ~seed) ~mode:`All

(* serve_warm set-up: daemon spawn until the first ping is answered,
   plus the one cold request that fills the cache. *)
let warm_setup ~dir ~seed ?log () =
  let t0 = now () in
  let daemon = start_daemon ~dir ?log () in
  send daemon.ctl (opamp_request ~seed);
  let answer = parse (recv daemon.ctl) in
  if Tool.Json.mem_str "cache" answer <> Some "miss" then
    die "serve_warm cold request: %s" (Tool.Json.to_string answer);
  (daemon, now () -. t0)

let finish_serve ~daemon ~lat ~meter ~check =
  let kv = counters daemon in
  let rss = stop_daemon daemon in
  { latencies = lat; meter; rss_kb = rss; exit_failures = 0; check;
    sweeps_par = counter "probe.sweeps_par" kv }

let run_warm ~golden ~dir ~seed ~seconds =
  let rec setups n acc =
    let daemon, dt = warm_setup ~dir ~seed () in
    if n = 1 then (daemon, median (dt :: acc))
    else begin
      ignore (stop_daemon daemon);
      setups (n - 1) (dt :: acc)
    end
  in
  let daemon, setup_s = setups setup_rounds [] in
  let deck_sha256 = Tool.Sha256.digest (Decks.opamp ~seed) in
  let lat, _, meter, check =
    warm_stream ~golden ~daemon ~request:(opamp_request ~seed) ~deck_sha256 ~seconds
  in
  { setup_s; stream = finish_serve ~daemon ~lat ~meter ~check }

let campaign_setup ~dir ~deck ?log () =
  let t0 = now () in
  let daemon = start_daemon ~dir ?log () in
  campaign_fill ~daemon ~deck ~capacity;
  (daemon, now () -. t0)

let run_campaign ~dir ~seed ~seconds =
  let t0 = now () in
  let deck = campaign_decks ~seed ~seconds in
  let gen = now () -. t0 in
  let daemon, dt = campaign_setup ~dir ~deck () in
  let answers, meter, check =
    campaign_stream ~daemon ~deck ~first:capacity ~seconds
  in
  let lat = List.map (fun (_, dt, _) -> dt) answers in
  { setup_s = gen +. dt; stream = finish_serve ~daemon ~lat ~meter ~check }

(* ---- traced run (--trace 1) ----

   Three phases on the workload's own inputs. U: the untraced request
   stream again, for the request_ms_p50 the layers are set against. T:
   the same stream with the program's telemetry on (the CLI's
   --metrics footer; the daemon's --log event lines and its counters
   command), which gives the per-request program counters, cache hit
   ratios and the daemon-side time of each request. R: the
   workload's requests replayed in this process through each layer's
   public entry point, in the order Tool.Pipeline calls them and with a
   cache as cold or warm as the workload's, each call inside a span
   recorded here (name, start, end, parent, request id) together with
   the words it allocated. No span or counter is added to the program. *)

type span = {
  sname : string;
  req : int;
  parent : string;
  t0_ns : int;
  t1_ns : int;
  alloc_kw : float;
}

let spans = ref []

let timed ~req ?(parent = "request") name f =
  let a0 = Gc.allocated_bytes () and t0 = Obs.Clock.now_ns () in
  let r = f () in
  let t1 = Obs.Clock.now_ns () and a1 = Gc.allocated_bytes () in
  spans :=
    { sname = name; req; parent; t0_ns = t0; t1_ns = t1; alloc_kw = (a1 -. a0) /. 8e3 }
    :: !spans;
  r

(* The layers reported, each as <name>_ms and <name>.alloc_kw. *)
let layers =
  [ "circuit.parse"; "lint.run"; "tool.sha256"; "staticanalysis.report";
    "stability.prepare"; "stability.plan"; "stability.kernel";
    "stability.coarse"; "stability.analyze"; "tool.manifest";
    "tool.json_encode"; "tool.json_decode"; "tool.pipeline_run" ]

let options = Stability.Analysis.default_options

let manifest_options mode =
  (match mode with
   | `All -> [ ("mode", "all-nodes") ]
   | `Single n -> [ ("mode", "single-node"); ("node", n) ])
  @ [ ("fmin", "1000"); ("fmax", "1e+09"); ("ppd", "30");
      ("health_sample", string_of_int (Engine.Health.sample_every ()));
      ("jobs", string_of_int jobs); ("jobs_effective", string_of_int jobs);
      ("parallel", "auto") ]

(* The daemon's analyze answer, field for field. *)
let response_json ~verdict ~sha256 (m : Tool.Manifest.t) =
  let mjson = Tool.Manifest.json m in
  Tool.Json.Obj
    [ ("request_id", Tool.Json.Str "r000001"); ("ok", Tool.Json.Bool true);
      ("cache", Tool.Json.Str verdict); ("deck_sha256", Tool.Json.Str sha256);
      ("wall_s", Tool.Json.Num m.wall_s);
      ("nodes", Option.value ~default:(Tool.Json.Arr []) (Tool.Json.member "nodes" mjson));
      ("manifest", mjson) ]

let load_layers ~req ~name ~text =
  let circ = timed ~req "circuit.parse" (fun () -> Circuit.Parser.parse_string ~name text) in
  let findings = timed ~req "lint.run" (fun () -> Lint.Runner.run circ) in
  let sha256 = timed ~req "tool.sha256" (fun () -> Tool.Sha256.digest text) in
  { Tool.Pipeline.deck_name = name; deck_text = text; sha256; circ; findings }

(* A request that misses the cache: what Pipeline.analyze does on a
   miss, one entry point at a time. Returns the layers measured beside
   the request (they nest inside the steps above, so they are not summed
   into it), to run once the request's span is closed. *)
let replay_miss ~req ~cache ~name ~text ~mode ~serve =
  let loaded = load_layers ~req ~name ~text in
  let circ = loaded.Tool.Pipeline.circ in
  let probe =
    timed ~req "stability.prepare" (fun () ->
        Stability.Probe.prepare ~dc_options:options.dc_options circ)
  in
  let plan = timed ~req "stability.plan" (fun () -> Stability.Analysis.shared_plan options probe) in
  let kernel =
    timed ~req "stability.kernel" (fun () -> Stability.Analysis.shared_kernel options plan)
  in
  let results =
    timed ~req "stability.analyze" (fun () ->
        match mode with
        | `All -> Stability.Analysis.all_nodes_prepared ~options ?plan ?kernel probe
        | `Single n -> [ Stability.Analysis.single_node_prepared ~options ?plan ?kernel probe n ])
  in
  let manifest =
    timed ~req "tool.manifest" (fun () ->
        Tool.Pipeline.manifest_of ~cache loaded ~options:(manifest_options mode) ~results
          ~wall_s:0. ~cpu_s:0.)
  in
  (* The cache keeps what a miss computed, and evicts as the daemon's does. *)
  timed ~req "tool.cache_insert" (fun () ->
      let key = loaded.Tool.Pipeline.sha256 in
      ignore (Tool.Cache.op cache ~key:(key ^ "|op") (fun () -> probe));
      ignore (Tool.Cache.plan cache ~key:(key ^ "|plan") (fun () -> plan));
      ignore (Tool.Cache.result cache ~key:(key ^ "|result") (fun () -> { Tool.Cache.results; manifest })));
  if serve then begin
    let line =
      timed ~req "tool.json_encode" (fun () ->
          Tool.Json.to_string (response_json ~verdict:"miss" ~sha256:loaded.Tool.Pipeline.sha256 manifest))
    in
    ignore (timed ~req "tool.json_decode" (fun () -> Tool.Json.of_string line))
  end
  else ignore (timed ~req "tool.json_encode" (fun () -> Tool.Manifest.to_json manifest));
  fun () ->
    ignore (timed ~req ~parent:"" "staticanalysis.report" (fun () -> Staticanalysis.Report.analyze circ));
    let nets =
      match mode with
      | `All -> Array.to_list (Circuit.Topology.nodes probe.Stability.Probe.mna.Engine.Mna.topo)
      | `Single n -> [ n ]
    in
    ignore
      (timed ~req ~parent:"" "stability.coarse" (fun () ->
           Stability.Probe.response_many ?plan ?kernel probe ~sweep:options.sweep nets))

(* A serve_warm hit: load, the result-cache hit, the answer encoded and
   decoded. *)
let replay_hit ~req ~cache ~name ~text =
  let loaded = load_layers ~req ~name ~text in
  let manifest =
    timed ~req "tool.cache_hit" (fun () ->
        match Tool.Pipeline.analyze ~cache loaded (Tool.Pipeline.All_nodes None) with
        | Ok { manifest; cache = `Hit; _ } -> manifest
        | _ -> die "serve_warm replay missed the cache")
  in
  let line =
    timed ~req "tool.json_encode" (fun () ->
        Tool.Json.to_string (response_json ~verdict:"hit" ~sha256:loaded.Tool.Pipeline.sha256 manifest))
  in
  ignore (timed ~req "tool.json_decode" (fun () -> Tool.Json.of_string line));
  fun () ->
    ignore
      (timed ~req ~parent:"" "staticanalysis.report" (fun () ->
           Staticanalysis.Report.analyze loaded.Tool.Pipeline.circ))

let pipeline_run ~req ~cache ~name ~text ~mode =
  let analysis =
    match mode with
    | `All -> Tool.Pipeline.All_nodes None
    | `Single n -> Tool.Pipeline.Single_node n
  in
  let r =
    timed ~req ~parent:"" "tool.pipeline_run" (fun () ->
        Tool.Pipeline.run ~cache
          (Tool.Pipeline.request (Tool.Pipeline.Deck_text { name; text }) analysis))
  in
  if Result.is_error r then die "Tool.Pipeline.run failed on %s" name

(* Phase R: replay for [seconds] (at least [min_requests]); returns the
   number replayed and the major collections each took. *)
let replay w ~seed ~seconds =
  Parallel.Pool.set_jobs jobs;
  let majors = ref [] in
  let request req f =
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    let beside = timed ~req ~parent:"" "request" f in
    majors := float_of_int ((Gc.quick_stat ()).Gc.major_collections - g0) :: !majors;
    beside ()
  in
  let loop ~min_requests step =
    let t0 = now () in
    let n = ref 0 in
    while !n < min_requests || (now () -. t0 < seconds && !n < 1000) do
      step !n;
      incr n
    done
  in
  (match w with
   | Cli_allnodes ->
     let text = Decks.opamp ~seed in
     loop ~min_requests:5 (fun req ->
         (* A fresh process: every cache cold. *)
         request req (fun () ->
             replay_miss ~req ~cache:(Tool.Cache.create ()) ~name:Decks.opamp_name ~text
               ~mode:`All ~serve:false);
         pipeline_run ~req ~cache:(Tool.Cache.create ()) ~name:Decks.opamp_name ~text ~mode:`All)
   | Serve_warm ->
     let text = Decks.opamp ~seed in
     let cache = Tool.Cache.create ~capacity () in
     pipeline_run ~req:(-1) ~cache ~name:Decks.opamp_name ~text ~mode:`All;
     loop ~min_requests:50 (fun req ->
         request req (fun () -> replay_hit ~req ~cache ~name:Decks.opamp_name ~text);
         pipeline_run ~req ~cache ~name:Decks.opamp_name ~text ~mode:`All)
   | Serve_campaign ->
     let cache = Tool.Cache.create ~capacity () in
     let mode = `Single Decks.campaign_node in
     for k = 0 to capacity - 1 do
       pipeline_run ~req:(-1) ~cache ~name:(Decks.variant_name k) ~text:(Decks.variant ~seed k) ~mode
     done;
     loop ~min_requests:3 (fun req ->
         let k = capacity + (2 * req) in
         request req (fun () ->
             replay_miss ~req ~cache ~name:(Decks.variant_name k) ~text:(Decks.variant ~seed k)
               ~mode ~serve:true);
         pipeline_run ~req ~cache ~name:(Decks.variant_name (k + 1))
           ~text:(Decks.variant ~seed (k + 1)) ~mode));
  !majors

(* The counter table of the CLI's --metrics footer. *)
let metrics_counters path =
  let lines = String.split_on_char '\n' (read_file path) in
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:"counter " l then rest else skip rest
  in
  let rec take acc = function
    | [] -> acc
    | l :: rest ->
      (match String.split_on_char ' ' l |> List.filter (( <> ) "") with
       | [ k; v ] -> (match float_of_string_opt v with Some x -> take ((k, x) :: acc) rest | None -> acc)
       | _ -> acc)
  in
  take [] (skip lines)

(* server.request lines of the daemon's event log: request id -> ms. *)
let log_ms path =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match Tool.Json.of_string line with
      | Ok j when Tool.Json.mem_str "event" j = Some "server.request" ->
        (match (Tool.Json.mem_str "request_id" j, Tool.Json.mem_float "ms" j) with
         | Some id, Some ms -> Hashtbl.replace tbl id ms
         | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' (read_file path));
  tbl

let pings daemon n =
  List.init n (fun _ ->
      let t0 = now () in
      ignore (call daemon.ctl (cmd "ping"));
      (now () -. t0) *. 1e3)

let spawn_version () =
  List.init 20 (fun _ ->
      let t0 = now () in
      let code, _, _ = reap (spawn [ "--version" ]) in
      if code <> 0 then die "acstab --version exited %d" code;
      (now () -. t0) *. 1e3)

(* Program counters per request, as the per-layer metric names give them. *)
let counter_metrics =
  [ ("staticanalysis.sfg_builds", "sfg.builds");
    ("stability.probe_points", "probe.points");
    ("stability.zoom_windows", "analysis.zoom_windows");
    ("engine.acplan_numeric", "acplan.numeric");
    ("engine.acplan_symbolic", "acplan.symbolic");
    ("engine.kernel_compiles", "kernel.compiles");
    ("engine.dcop_solves", "dcop.solves");
    ("parallel.sweeps_par", "probe.sweeps_par") ]

let families = [ "op"; "plan"; "kernel"; "result"; "sfg" ]

(* From per-request counters: the counter metrics, each family's hit
   ratio (0 when the family saw no lookup) and evictions. *)
let telemetry_metrics per_request =
  let c k = counter k per_request in
  List.map (fun (m, k) -> (m, "count", c k)) counter_metrics
  @ List.map
      (fun f ->
        let h = c (Printf.sprintf "cache.%s.hits" f)
        and m = c (Printf.sprintf "cache.%s.misses" f) in
        (Printf.sprintf "tool.cache_hit_ratio.%s" f, "ratio", if h +. m > 0. then h /. (h +. m) else 0.))
      families
  @ [ ("tool.cache_evictions", "count",
       List.fold_left (fun acc f -> acc +. c (Printf.sprintf "cache.%s.evictions" f)) 0. families) ]

let delta before after = List.map (fun (k, v) -> (k, v -. counter k before)) after

(* Median of each counter over per-request tables. *)
let median_counters tables =
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) tables) in
  List.map (fun k -> (k, median (List.map (counter k) tables))) keys

(* Program counters per request on a fixed set of requests, each sent
   alone with the daemon's counters read before and after it, so the
   same seed gives the same numbers. *)
let counted daemon requests =
  median_counters
    (List.map
       (fun request ->
         let before = counters daemon in
         send daemon.ctl request;
         ignore (recv daemon.ctl);
         delta before (counters daemon))
       requests)

type traced = {
  untraced_p50_ms : float;
  traced_p50_ms : float;
  per_request : (string * float) list;   (* program counters *)
  handle_ms : float;
  wait_ms : float;
  ping_ms : float;
  attempted : int;
  failed : int;
  sweeps_par : float;
}

let p50_ms lat = median (List.map (fun x -> x *. 1e3) lat)

let served ~log ~ids ~lat =
  let ms = log_ms log in
  let pairs =
    List.filter_map
      (fun (id, l) -> Option.bind id (fun id -> Option.map (fun m -> (m, (l *. 1e3) -. m)) (Hashtbl.find_opt ms id)))
      (List.combine ids lat)
  in
  (median (List.map fst pairs), median (List.map snd pairs))

let traced_phases w ~golden ~dir ~seed ~seconds =
  let log = Filename.concat dir "events.ndjson" in
  match w with
  | Cli_allnodes ->
    let deck = Filename.concat dir Decks.opamp_name in
    write_file deck (Decks.opamp ~seed);
    ignore (cli_request ~dir ~deck ());
    let u = cli_stream ~golden ~dir ~deck ~seconds () in
    let tables = ref [] in
    let t =
      cli_stream ~golden ~dir ~deck ~seconds ~extra:[ "--metrics" ]
        ~after:(fun stderr -> tables := metrics_counters stderr :: !tables) ()
    in
    { untraced_p50_ms = p50_ms u.latencies; traced_p50_ms = p50_ms t.latencies;
      per_request = median_counters !tables; handle_ms = 0.; wait_ms = 0.; ping_ms = 0.;
      attempted = List.length u.latencies + List.length t.latencies;
      failed = u.exit_failures + u.check () + t.exit_failures + t.check ();
      sweeps_par = u.sweeps_par +. t.sweeps_par }
  | Serve_warm ->
    let deck_sha256 = Tool.Sha256.digest (Decks.opamp ~seed) in
    let request = opamp_request ~seed in
    let daemon, _ = warm_setup ~dir ~seed () in
    let ulat, _, _, ucheck = warm_stream ~golden ~daemon ~request ~deck_sha256 ~seconds in
    let usweeps = counter "probe.sweeps_par" (counters daemon) in
    ignore (stop_daemon daemon);
    let daemon, _ = warm_setup ~dir ~seed ~log () in
    let tlat, ids, _, tcheck = warm_stream ~golden ~daemon ~request ~deck_sha256 ~seconds in
    let per_request = counted daemon (List.init 9 (fun _ -> request)) in
    let ping = pings daemon 50 in
    ignore (stop_daemon daemon);
    let handle_ms, wait_ms = served ~log ~ids ~lat:tlat in
    { untraced_p50_ms = p50_ms ulat; traced_p50_ms = p50_ms tlat; per_request;
      handle_ms; wait_ms; ping_ms = median ping;
      attempted = List.length ulat + List.length tlat; failed = ucheck () + tcheck ();
      sweeps_par = usweeps +. counter "probe.sweeps_par" per_request }
  | Serve_campaign ->
    let deck = campaign_decks ~seed ~seconds in
    let daemon, _ = campaign_setup ~dir ~deck () in
    let uans, _, ucheck = campaign_stream ~daemon ~deck ~first:capacity ~seconds in
    let usweeps = counter "probe.sweeps_par" (counters daemon) in
    ignore (stop_daemon daemon);
    let daemon, _ = campaign_setup ~dir ~deck ~log () in
    let tans, _, tcheck = campaign_stream ~daemon ~deck ~first:capacity ~seconds in
    (* Nine variants no stream reaches, each a miss that evicts. *)
    let per_request =
      counted daemon (List.init 9 (fun i -> campaign_request ~deck (1_000_000 + i)))
    in
    let ping = pings daemon 20 in
    ignore (stop_daemon daemon);
    let lat answers = List.map (fun (_, l, _) -> l) answers in
    let handle_ms, wait_ms =
      served ~log
        ~ids:(List.map (fun (_, _, j) -> Tool.Json.mem_str "request_id" j) tans)
        ~lat:(lat tans)
    in
    { untraced_p50_ms = p50_ms (lat uans); traced_p50_ms = p50_ms (lat tans); per_request;
      handle_ms; wait_ms; ping_ms = median ping;
      attempted = List.length uans + List.length tans; failed = ucheck () + tcheck ();
      sweeps_par = usweeps +. counter "probe.sweeps_par" per_request }

let write_spans path =
  let span s =
    Tool.Json.Obj
      [ ("name", Tool.Json.Str s.sname); ("request", Tool.Json.Num (float_of_int s.req));
        ("parent", Tool.Json.Str s.parent);
        ("start_ns", Tool.Json.Num (float_of_int s.t0_ns));
        ("end_ns", Tool.Json.Num (float_of_int s.t1_ns));
        ("alloc_kw", Tool.Json.Num s.alloc_kw) ]
  in
  write_file path (Tool.Json.to_string (Tool.Json.Arr (List.rev_map span !spans)) ^ "\n")

let layer_metrics w ~golden ~dir ~seed ~seconds =
  spans := [];
  (* A third of the time for each phase. *)
  let phase = seconds /. 3. in
  let t = traced_phases w ~golden ~dir ~seed ~seconds:phase in
  let majors = replay w ~seed ~seconds:phase in
  write_spans
    (Filename.concat run_root (Printf.sprintf "spans-%s-seed%d.json" (workload_name w) seed));
  (* A layer's (ms, kilowords): medians over its spans; 0 when the
     workload's requests do not pass through it. *)
  let layer name =
    match List.filter (fun s -> s.sname = name) !spans with
    | [] -> (0., 0.)
    | xs ->
      (median (List.map (fun s -> float_of_int (s.t1_ns - s.t0_ns) *. 1e-6) xs),
       median (List.map (fun s -> s.alloc_kw) xs))
  in
  (* The layers on the request path: spans whose parent is the request. *)
  let on_path =
    List.sort_uniq compare
      (List.filter_map (fun s -> if s.parent = "request" && List.mem s.sname layers then Some s.sname else None) !spans)
  in
  let attributed = List.fold_left (fun acc n -> acc +. fst (layer n)) 0. on_path in
  let metrics =
    List.map (fun n -> (n ^ "_ms", "ms", fst (layer n))) layers
    @ List.map (fun n -> (n ^ ".alloc_kw", "kw", snd (layer n))) layers
    @ telemetry_metrics t.per_request
    @ [ ("server.ping_ms", "ms", t.ping_ms); ("server.handle_ms", "ms", t.handle_ms);
        ("server.wait_ms", "ms", t.wait_ms);
        ("cli.spawn_ms", "ms", median (spawn_version ()));
        ("gc.major_per_request", "count", median majors);
        ("unattributed_ms", "ms", t.untraced_p50_ms -. attributed);
        ("obs.trace_overhead_ms", "ms", t.traced_p50_ms -. t.untraced_p50_ms) ]
  in
  (t, metrics)

(* ---- host block ---- *)

(* CPUs this process may run on, as nproc(1) counts them. *)
let nproc () =
  match
    read_file "/proc/self/status" |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list:")
  with
  | None -> 0
  | Some line ->
    let spec = String.trim (List.nth (String.split_on_char ':' line) 1) in
    List.fold_left
      (fun acc range ->
        match String.split_on_char '-' range with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ a ] when a <> "" -> acc + 1
        | _ -> acc)
      0 (String.split_on_char ',' spec)

let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when line <> "" -> line
     | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

(* Fingerprint of the program's sources, which identifies the code under
   test where the checkout is not a git repository. *)
let source_sha256 () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
                   || f = "dune" then [ p ]
           else [])
  in
  let files = walk "lib" @ walk "bin" in
  Tool.Sha256.digest
    (String.concat "" (List.map (fun p -> p ^ "\000" ^ read_file p) files))

(* Read before the benchmark pins itself to one CPU. *)
let host ~seed =
  let nproc = nproc () and domains = Domain.recommended_domain_count () in
  fun ~cpu ->
  Tool.Json.Obj
    [ ("nproc", Tool.Json.Num (float_of_int nproc));
      ("recommended_domain_count", Tool.Json.Num (float_of_int domains));
      ("pinned_cpu", Tool.Json.Num (float_of_int cpu));
      ("ocaml", Tool.Json.Str Sys.ocaml_version);
      ("commit", Tool.Json.Str (commit ()));
      ("source_sha256", Tool.Json.Str (source_sha256 ()));
      ("seed", Tool.Json.Num (float_of_int seed));
      ("jobs", Tool.Json.Num (float_of_int jobs));
      ("cache_capacity", Tool.Json.Num (float_of_int capacity)) ]

(* ---- reporting ---- *)

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, _, v) -> if not (Float.is_finite v) then die "%s did not come out finite" name)
    metrics;
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_)
          metrics))

let print_metrics ~workload metrics =
  List.iter
    (fun (name, unit_, v) -> Printf.printf "%-16s %-34s %14.6g %s\n" workload name v unit_)
    metrics

let e2e_metrics { setup_s; stream = s } =
  let ms = List.map (fun x -> x *. 1e3) s.latencies in
  [ ("setup_s", "s", setup_s);
    ("request_ms_p50", "ms", quantile ms 0.5);
    ("request_ms_p90", "ms", quantile ms 0.9);
    ("throughput_rps", "1/s", throughput s.meter);
    ("cpu_ms_per_request", "ms", cpu_per_request s.meter *. 1e3);
    ("rss_peak_mb", "MiB", float_of_int s.rss_kb /. 1024.) ]

(* ---- main ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run_workload ~golden ~seed ~seconds ~trace w =
  (* Relative paths keep the socket path short wherever the checkout is. *)
  let dir = Filename.concat run_root (Printf.sprintf "%s-%d" (workload_name w) (Unix.getpid ())) in
  remove_tree dir;
  mkdir_p dir;
  scratch := dir :: !scratch;
  if trace then begin
    let t, metrics = layer_metrics w ~golden ~dir ~seed ~seconds in
    if t.sweeps_par <> 0. then
      die "%s: the program ran parallel sweeps under -j %d; refusing to report"
        (workload_name w) jobs;
    (t.attempted, t.failed, metrics)
  end
  else
    let r =
      match w with
      | Cli_allnodes -> run_cli ~golden ~dir ~seed ~seconds
      | Serve_warm -> run_warm ~golden ~dir ~seed ~seconds
      | Serve_campaign -> run_campaign ~dir ~seed ~seconds
    in
    let s = r.stream in
    if s.sweeps_par <> 0. then
      die "%s: the program ran %g parallel sweeps under -j %d; refusing to report"
        (workload_name w) s.sweeps_par jobs;
    let attempted = List.length s.latencies in
    let failed = s.exit_failures + s.check () in
    (attempted, failed, e2e_metrics r)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME cli_allnodes, serve_warm, serve_campaign or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> die "unexpected argument %S" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists acstab) then die "%s is not built" acstab;
  let golden =
    match Tool.Manifest.load golden_path with
    | Ok m -> m
    | Error e -> die "%s: %s" golden_path e
  in
  let selected =
    match !workload with
    | "all" -> workloads
    | name ->
      (match List.find_opt (fun w -> workload_name w = name) workloads with
       | Some w -> [ w ]
       | None -> die "unknown workload %S" name)
  in
  let host = host ~seed:!seed in
  let cpu = pin_last_cpu () in
  Printf.printf "host %s\n%!" (Tool.Json.to_string (host ~cpu));
  let results =
    List.map
      (fun w ->
        let attempted, failed, metrics =
          run_workload ~golden ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) w
        in
        print_metrics ~workload:(workload_name w) metrics;
        Printf.printf "%-16s attempted %d, failed %d\n%!" (workload_name w) attempted failed;
        (w, attempted, failed, metrics))
      selected
  in
  match results with
  | [ (_, attempted, failed, metrics) ] ->
    print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics)
  | _ ->
    print_endline
      (Printf.sprintf "{%s}"
         (String.concat ", "
            (List.map
               (fun (w, attempted, failed, metrics) ->
                 Printf.sprintf "%S: %s" (workload_name w)
                   (result_line ~correct:(failed = 0) ~attempted ~failed metrics))
               results)))
