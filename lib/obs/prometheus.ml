(* Prometheus text exposition (format 0.0.4) over the observability
   registries, plus a small validating parser for tests and `acstab
   top`.

   Mapping:
   - every metric name is sanitised ([.] and any other non-alphanumeric
     byte become [_]) and prefixed [acstab_];
   - counters render as [# TYPE ... counter] with a [_total] suffix;
     the [*_ns] counters (cumulative nanoseconds, e.g.
     [pool.main.busy_ns]) are converted to milliseconds and renamed
     [*_ms_total] so every exported duration — counter, histogram or
     span table — reads in the same unit;
   - gauges render as [# TYPE ... gauge];
   - histograms render as summaries: [{quantile="0.5"|"0.9"|"0.99"}]
     rows from the bucketed percentiles, a [_count] row, and a
     companion [<name>_max] gauge for the exact observed maximum
     (which a Prometheus summary has no slot for).

   The explicit-list entry points exist so tests can golden the exact
   text for a fixed registry without scrubbing ambient counters. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
      | _ -> '_')
    name

let metric name = "acstab_" ^ sanitize name

(* Deterministic float rendering: integral values print with no
   fraction so goldens are stable across platforms. *)
let number v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let ns_counter name =
  String.length name > 3
  && String.sub name (String.length name - 3) 3 = "_ns"

let add_counter b (name, v) =
  let base, value =
    if ns_counter name then
      (String.sub name 0 (String.length name - 3) ^ "_ms",
       float_of_int v /. 1e6)
    else (name, float_of_int v)
  in
  let m = metric base ^ "_total" in
  Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
  Buffer.add_string b (Printf.sprintf "%s %s\n" m (number value))

let add_gauge b (name, v) =
  let m = metric name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" m);
  Buffer.add_string b (Printf.sprintf "%s %s\n" m (number v))

let add_histogram b (name, (s : Histogram.summary)) =
  let m = metric name in
  Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" m);
  List.iter
    (fun (q, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s{quantile=\"%s\"} %s\n" m q (number v)))
    [ ("0.5", s.Histogram.p50); ("0.9", s.Histogram.p90);
      ("0.99", s.Histogram.p99) ];
  Buffer.add_string b
    (Printf.sprintf "%s_count %s\n" m (number (float_of_int s.Histogram.count)));
  Buffer.add_string b (Printf.sprintf "# TYPE %s_max gauge\n" m);
  Buffer.add_string b
    (Printf.sprintf "%s_max %s\n" m (number s.Histogram.max))

let render ?counters ?gauges ?histograms () =
  let counters =
    match counters with Some c -> c | None -> Counter.snapshot ()
  in
  let gauges = match gauges with Some g -> g | None -> Gauge.snapshot () in
  let histograms =
    match histograms with Some h -> h | None -> Histogram.snapshot ()
  in
  let b = Buffer.create 1024 in
  List.iter (add_counter b) counters;
  List.iter (add_gauge b) gauges;
  List.iter (add_histogram b) histograms;
  Buffer.contents b

(* ---- parser ---- *)

type sample = {
  metric_name : string;
  labels : (string * string) list;
  value : float;
}

let parse_labels s =
  (* k=<quoted>,k2=<quoted>; values contain no escapes we ever emit,
     but accept backslash escapes for robustness. *)
  let n = String.length s in
  let rec skip_ws i = if i < n && s.[i] = ' ' then skip_ws (i + 1) else i in
  let rec pairs i acc =
    let i = skip_ws i in
    if i >= n then Error "unterminated label set"
    else if s.[i] = '}' then Ok (List.rev acc, i + 1)
    else begin
      match String.index_from_opt s i '=' with
      | None -> Error "label without '='"
      | Some eq ->
        let key = String.trim (String.sub s i (eq - i)) in
        if eq + 1 >= n || s.[eq + 1] <> '"' then Error "label value not quoted"
        else begin
          let buf = Buffer.create 16 in
          let rec value j =
            if j >= n then Error "unterminated label value"
            else
              match s.[j] with
              | '"' -> Ok (j + 1)
              | '\\' when j + 1 < n ->
                Buffer.add_char buf s.[j + 1];
                value (j + 2)
              | c ->
                Buffer.add_char buf c;
                value (j + 1)
          in
          match value (eq + 2) with
          | Error _ as e -> e
          | Ok j ->
            let acc = (key, Buffer.contents buf) :: acc in
            let j = skip_ws j in
            if j < n && s.[j] = ',' then pairs (j + 1) acc
            else if j < n && s.[j] = '}' then Ok (List.rev acc, j + 1)
            else Error "expected ',' or '}' after label"
        end
    end
  in
  pairs 0 []

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s
  && (match s.[0] with '0' .. '9' -> false | _ -> true)

let parse_line line =
  match String.index_opt line '{' with
  | Some brace ->
    let name = String.sub line 0 brace in
    if not (valid_name name) then Error ("bad metric name: " ^ name)
    else begin
      let rest =
        String.sub line (brace + 1) (String.length line - brace - 1)
      in
      match parse_labels rest with
      | Error e -> Error e
      | Ok (labels, consumed) ->
        let v = String.trim (String.sub rest consumed
                               (String.length rest - consumed)) in
        (match float_of_string_opt v with
         | Some value -> Ok { metric_name = name; labels; value }
         | None -> Error ("bad sample value: " ^ v))
    end
  | None ->
    (match String.index_opt line ' ' with
     | None -> Error ("sample line without value: " ^ line)
     | Some sp ->
       let name = String.sub line 0 sp in
       let v = String.trim (String.sub line sp (String.length line - sp)) in
       if not (valid_name name) then Error ("bad metric name: " ^ name)
       else
         (match float_of_string_opt v with
          | Some value -> Ok { metric_name = name; labels = []; value }
          | None -> Error ("bad sample value: " ^ v)))

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || (String.length line > 0 && line.[0] = '#') then
        go acc rest
      else begin
        match parse_line line with
        | Ok s -> go (s :: acc) rest
        | Error e -> Error e
      end
  in
  go [] lines

let find ?(labels = []) name samples =
  List.find_opt
    (fun s ->
      s.metric_name = name
      && List.for_all
           (fun (k, v) -> List.assoc_opt k s.labels = Some v)
           labels)
    samples
  |> Option.map (fun s -> s.value)
