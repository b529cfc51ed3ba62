(* Content-keyed memoization of the expensive pipeline stages.

   The paper's tool is a resident environment: a designer's session
   re-runs the same analysis many times with small edits, so the parsed
   deck, the operating point, the compiled solve plan and whole result
   sets are worth keeping between requests. Keys are strings built by
   [Pipeline]. The [deck] family's key is the deck's origin plus its
   exact text with every [.include] expanded; the entry keeps that
   text's SHA-256 fingerprint, computed once on the miss. Every other
   family's key starts from that fingerprint and the origin, followed
   by the options in force. An edited deck or a changed option is a
   different key, which is all the invalidation a content-addressed
   cache needs.

   Six families, one per pipeline stage:
   - [deck]   : parsed circuits with their text's fingerprint and their
                default-config lint findings (filled on first need)
   - [op]     : prepared probes (MNA compile + DC operating point +
                the pencil's blocks)
   - [plan]   : compiled {!Engine.Ac_plan} symbolic analyses, one cell
                per block, holding the blocks some request has probed
                and nothing for the rest ([None] when the options select
                a dense backend)
   - [kernel] : compiled {!Engine.Kernel} solve programs, likewise one
                cell per block, probed blocks only ([None] unless the
                options select the kernel backend)
   - [result] : full analysis outcomes (node results + run manifest),
                each with its JSON text from the first hit the serve
                daemon answers from it (a miss renders and keeps
                nothing: an all-miss campaign never reads it again)
   - [sfg]    : static signal-flow reports (loops + probe cover, and the
                graph facts their readers print; not the graph)

   Every family feeds always-on {!Obs.Counter}s ([cache.<family>.hits]
   / [.misses] / [.evictions]) so traces, [--metrics] and the serve
   daemon's counters command expose cache behaviour, and tests assert
   it. Lookups are mutex-protected (the serve daemon calls in from
   [Parallel.Pool] workers); the compute thunk itself runs outside the
   lock, so two simultaneous cold requests for the same key may both
   compute — the second insert wins, which is harmless because values
   of the same key are equivalent. *)

type 'a slot = {
  value : 'a;
  mutable last_used : int;  (* generation stamp for LRU eviction *)
}

type 'a family = {
  fname : string;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
  table : (string, 'a slot) Hashtbl.t;
}

type result_entry = {
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
}

type rendering = { manifest_json : string; nodes_json : string }

(* A result entry and its JSON text. The text cell is an atomic for the
   same reason as the lint cell below: pool domains answer hits on one
   entry at once. It lives and dies with the slot, so an evicted and
   recomputed entry starts with an empty cell and never shows an
   earlier run's bytes. *)
type stored_result = {
  entry : result_entry;
  rendered : rendering option Atomic.t;
}

(* The lint cell is an atomic, not a [Lazy.t]: two pool domains may
   need one entry's findings at once, and forcing a lazy another domain
   is forcing raises. Racing computations store equal lists. *)
type deck_entry = {
  circ : Circuit.Netlist.t;
  sha256 : string;
  lint : Lint.Rule.finding list option Atomic.t;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  mutable tick : int;
  decks : deck_entry family;
  ops : Stability.Probe.t family;
  plans : Engine.Ac_plan.set option family;
  kernels : Engine.Kernel.set option family;
  results : stored_result family;
  sfgs : Staticanalysis.Report.t family;
}

let family fname =
  { fname;
    hits = Obs.Counter.make (Printf.sprintf "cache.%s.hits" fname);
    misses = Obs.Counter.make (Printf.sprintf "cache.%s.misses" fname);
    evictions = Obs.Counter.make (Printf.sprintf "cache.%s.evictions" fname);
    table = Hashtbl.create 16 }

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  { mutex = Mutex.create ();
    capacity = max 1 capacity;
    tick = 0;
    decks = family "deck";
    ops = family "op";
    plans = family "plan";
    kernels = family "kernel";
    results = family "result";
    sfgs = family "sfg" }

let the_global = lazy (create ())
let global () = Lazy.force the_global

let locked c f =
  Mutex.lock c.mutex;
  match f () with
  | v -> Mutex.unlock c.mutex; v
  | exception e -> Mutex.unlock c.mutex; raise e

let stamp c = c.tick <- c.tick + 1; c.tick

(* Evict the least-recently-used slot once a family exceeds the
   capacity. Linear scan: capacities are tens of entries, and eviction
   only runs on insert. *)
let evict_lru c fam =
  if Hashtbl.length fam.table > c.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k s ->
        match !victim with
        | Some (_, age) when age <= s.last_used -> ()
        | _ -> victim := Some (k, s.last_used))
      fam.table;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove fam.table k;
      Obs.Counter.incr fam.evictions
    | None -> ()
  end

(* Caller holds the lock. A hit refreshes the entry's LRU stamp. *)
let lookup c fam key =
  match Hashtbl.find_opt fam.table key with
  | Some slot ->
    slot.last_used <- stamp c;
    Some slot.value
  | None -> None

let find c fam key =
  locked c (fun () ->
      let v = lookup c fam key in
      Obs.Counter.incr (if Option.is_some v then fam.hits else fam.misses);
      v)

let insert c fam key value =
  locked c (fun () ->
      Hashtbl.replace fam.table key { value; last_used = stamp c };
      evict_lru c fam)

let memo c fam ~key compute =
  match find c fam key with
  | Some v -> (v, true)
  | None ->
    let v = compute () in
    insert c fam key v;
    (v, false)

let deck c ~key compute = memo c c.decks ~key compute
let op c ~key compute = memo c c.ops ~key compute
let plan c ~key compute = memo c c.plans ~key compute
let kernel c ~key compute = memo c c.kernels ~key compute
let result c ~key compute =
  memo c c.results ~key (fun () ->
      { entry = compute (); rendered = Atomic.make None })
let sfg c ~key compute = memo c c.sfgs ~key compute

let renders = Obs.Counter.make "manifest.renders"

(* The miss that made an entry renders its answer and keeps nothing:
   most entries of an all-miss campaign are never read again. The
   first hit renders and stores, so only entries read twice keep text.
   Racing domains both render and store equal strings; the counter
   then reads 2 for that entry, which is the only cost. *)
let rendering ~hit stored =
  match Atomic.get stored.rendered with
  | Some r -> r
  | None ->
    Obs.Counter.incr renders;
    let doc = Manifest.json stored.entry.manifest in
    let nodes = Option.value ~default:(Json.Arr []) (Json.member "nodes" doc) in
    let r = { manifest_json = Json.to_string doc; nodes_json = Json.to_string nodes } in
    if hit then Atomic.set stored.rendered (Some r);
    r

let clear c =
  locked c (fun () ->
      Hashtbl.reset c.decks.table;
      Hashtbl.reset c.ops.table;
      Hashtbl.reset c.plans.table;
      Hashtbl.reset c.kernels.table;
      Hashtbl.reset c.results.table;
      Hashtbl.reset c.sfgs.table)

let capacity c = c.capacity

type family_stats = {
  family : string;
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let family_stat (c : t) (fam : _ family) =
  { family = fam.fname;
    entries = Hashtbl.length fam.table;
    capacity = c.capacity;
    hits = Obs.Counter.value fam.hits;
    misses = Obs.Counter.value fam.misses;
    evictions = Obs.Counter.value fam.evictions }

let stats c =
  locked c (fun () ->
      [ family_stat c c.decks; family_stat c c.ops; family_stat c c.plans;
        family_stat c c.kernels; family_stat c c.results;
        family_stat c c.sfgs ])

(* Occupancy is state, not a monotonic count, so live exposition reads
   it through [Obs.Gauge]: the serve daemon calls this on its
   background tick (and on demand for a `metrics` request) to publish
   cache.<family>.entries / .capacity next to the hit/miss counters. *)
let sample_gauges c =
  List.iter
    (fun s ->
      Obs.Gauge.set
        (Obs.Gauge.make (Printf.sprintf "cache.%s.entries" s.family))
        (float_of_int s.entries);
      Obs.Gauge.set
        (Obs.Gauge.make (Printf.sprintf "cache.%s.capacity" s.family))
        (float_of_int s.capacity))
    (stats c)
