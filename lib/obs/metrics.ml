(* Human-readable rollup of the span buffers, counter registry and
   histogram registry, for [--metrics] and bench output. Spans aggregate
   by name; durations print in the largest natural unit. Every entry
   point takes an explicit event snapshot so one [Span.events ()] call
   can feed both the trace writer and this summary. *)

type row = { name : string; count : int; total_ns : int; max_ns : int }

let rows_of events =
  let tbl : (string, row ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Span.event) ->
      match Hashtbl.find_opt tbl e.name with
      | Some r ->
          r :=
            {
              !r with
              count = !r.count + 1;
              total_ns = !r.total_ns + e.dur_ns;
              max_ns = max !r.max_ns e.dur_ns;
            }
      | None ->
          Hashtbl.add tbl e.name
            (ref
               {
                 name = e.name;
                 count = 1;
                 total_ns = e.dur_ns;
                 max_ns = e.dur_ns;
               }))
    events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare b.total_ns a.total_ns)

let rows () = rows_of (Span.events ())

let domain_rows_of events =
  (* Busy-time rollup per recording domain, so pool imbalance shows up
     next to the pool.* counters. Only leaf-ish span time is meaningful
     per domain, but summing everything a domain recorded is still a
     usable imbalance signal — nesting inflates every domain equally. *)
  let tbl : (int, (int * int) ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Span.event) ->
      match Hashtbl.find_opt tbl e.tid with
      | Some r ->
          let c, t = !r in
          r := (c + 1, t + e.dur_ns)
      | None -> Hashtbl.add tbl e.tid (ref (1, e.dur_ns)))
    events;
  Hashtbl.fold (fun tid r acc -> (tid, fst !r, snd !r) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let domain_rows () = domain_rows_of (Span.events ())

let pp_ns ppf ns =
  let f = float_of_int ns in
  if f >= 1e9 then Format.fprintf ppf "%8.3f s " (f /. 1e9)
  else if f >= 1e6 then Format.fprintf ppf "%8.3f ms" (f /. 1e6)
  else if f >= 1e3 then Format.fprintf ppf "%8.3f us" (f /. 1e3)
  else Format.fprintf ppf "%8d ns" ns

let pp_events events ppf () =
  let spans = rows_of events in
  if spans <> [] then begin
    Format.fprintf ppf "%-28s %8s %11s %11s@." "span" "count" "total" "max";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-28s %8d %a %a@." r.name r.count pp_ns r.total_ns
          pp_ns r.max_ns)
      spans
  end;
  (match domain_rows_of events with
  | [] | [ _ ] -> ()
  | domains ->
      Format.fprintf ppf "@.%-28s %8s %11s@." "domain" "spans" "busy";
      List.iter
        (fun (tid, count, total_ns) ->
          Format.fprintf ppf "%-28s %8d %a@."
            (Printf.sprintf "domain %d" tid)
            count pp_ns total_ns)
        domains);
  let counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ()) in
  if counters <> [] then begin
    if spans <> [] then Format.fprintf ppf "@.";
    Format.fprintf ppf "%-28s %12s@." "counter" "value";
    List.iter
      (fun (name, v) ->
        (* Cumulative-nanosecond counters ([*_ns]) render through the
           duration pretty-printer, so pool.main.busy_ns reads in the
           same unit family as the span table and the *_ms histograms
           instead of as a raw nanosecond integer. *)
        let is_ns =
          String.length name > 3
          && String.sub name (String.length name - 3) 3 = "_ns"
        in
        if is_ns then Format.fprintf ppf "%-28s %a@." name pp_ns v
        else Format.fprintf ppf "%-28s %12d@." name v)
      counters
  end;
  let gauges =
    List.filter (fun (_, v) -> v <> 0.) (Gauge.snapshot ())
  in
  if gauges <> [] then begin
    if spans <> [] || counters <> [] then Format.fprintf ppf "@.";
    Format.fprintf ppf "%-28s %12s@." "gauge" "value";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "%-28s %12g@." name v)
      gauges
  end;
  let hists = Histogram.snapshot () in
  if hists <> [] then begin
    if spans <> [] || counters <> [] || gauges <> [] then
      Format.fprintf ppf "@.";
    Format.fprintf ppf "%-28s %8s %9s %9s %9s %9s@." "histogram" "count" "p50"
      "p90" "p99" "max";
    List.iter
      (fun (name, (s : Histogram.summary)) ->
        Format.fprintf ppf "%-28s %8d %9.2g %9.2g %9.2g %9.2g@." name s.count
          s.p50 s.p90 s.p99 s.max)
      hists
  end;
  if spans = [] && counters = [] && gauges = [] && hists = [] then
    Format.fprintf ppf "no spans or counters recorded@."

let pp ppf () = pp_events (Span.events ()) ppf ()
