(* Run manifests: one JSON document capturing what was analysed (deck
   fingerprint, options), what came out (per-node peak numbers and
   health grades) and how the run behaved (counters, health histograms,
   timing). Two manifests of the same deck are comparable artefacts —
   [diff] below is what [acstab diff] runs, and the CI smoke gates on
   it. *)

let schema_version = "acstab-manifest/1"

type node_entry = {
  node : string;
  f_n : float option;
  zeta : float option;
  phase_margin_deg : float option;
  peak : float option;
  quality : string;
}

type loop_record = {
  loop_id : string;
  loop_kind : string;
  loop_gain_order : int;
  loop_nets : string list;
}

type loops_section = {
  loop_list : loop_record list;
  cover : string list;
  loops_truncated : bool;
}

type t = {
  deck_file : string;
  deck_sha256 : string;
  stats : (string * int) list;
  options : (string * string) list;
  lint : Json.t;
  nodes : node_entry list;
  loops : loops_section option;
  counters : (string * int) list;
  histograms : (string * Obs.Histogram.summary) list;
  wall_s : float;
  cpu_s : float;
}

let entry_of_result (r : Stability.Analysis.node_result) =
  let dominant f = Option.map f r.dominant in
  { node = r.node;
    f_n = dominant (fun d -> d.Stability.Peaks.freq);
    zeta = Option.join (dominant (fun d -> d.Stability.Peaks.zeta));
    phase_margin_deg =
      Option.join (dominant (fun d -> d.Stability.Peaks.phase_margin_deg));
    peak = dominant (fun d -> d.Stability.Peaks.value);
    quality = Stability.Analysis.quality_string r.quality }

let build ~deck_file ~deck_sha256 ?circ ?(options = []) ?(lint = Json.Arr [])
    ?loops ~results ~wall_s ~cpu_s () =
  let stats =
    match circ with
    | None -> []
    | Some c ->
      [ ("nodes", Circuit.Topology.node_count (Circuit.Topology.build c));
        ("devices", List.length (Circuit.Netlist.devices c)) ]
  in
  { deck_file;
    deck_sha256;
    stats;
    options;
    lint;
    nodes = List.map entry_of_result results;
    loops;
    counters = List.filter (fun (_, v) -> v <> 0) (Obs.Counter.snapshot ());
    histograms = Obs.Histogram.snapshot ();
    wall_s;
    cpu_s }

(* --- JSON round trip --- *)

let opt_num = function Some v -> Json.Num v | None -> Json.Null

let json_of_entry e =
  Json.Obj
    [ ("node", Json.Str e.node);
      ("f_n", opt_num e.f_n);
      ("zeta", opt_num e.zeta);
      ("phase_margin_deg", opt_num e.phase_margin_deg);
      ("peak", opt_num e.peak);
      ("quality", Json.Str e.quality) ]

let json_of_loop l =
  Json.Obj
    [ ("id", Json.Str l.loop_id);
      ("kind", Json.Str l.loop_kind);
      ("gain_order", Json.Num (float_of_int l.loop_gain_order));
      ("nets", Json.Arr (List.map (fun n -> Json.Str n) l.loop_nets)) ]

let json_of_loops s =
  Json.Obj
    [ ("loops", Json.Arr (List.map json_of_loop s.loop_list));
      ("cover", Json.Arr (List.map (fun n -> Json.Str n) s.cover));
      ("truncated", Json.Bool s.loops_truncated) ]

let json_of_summary (s : Obs.Histogram.summary) =
  Json.Obj
    [ ("count", Json.Num (float_of_int s.count));
      ("p50", Json.Num s.p50);
      ("p90", Json.Num s.p90);
      ("p99", Json.Num s.p99);
      ("max", Json.Num s.max) ]

let json m =
  (Json.Obj
      ([ ("schema", Json.Str schema_version);
         ("deck",
          Json.Obj
            ([ ("file", Json.Str m.deck_file);
               ("sha256", Json.Str m.deck_sha256) ]
            @ List.map
                (fun (k, v) -> (k, Json.Num (float_of_int v)))
                m.stats));
         ("options",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.options));
         ("lint", m.lint);
         ("nodes", Json.Arr (List.map json_of_entry m.nodes)) ]
       (* The loops section is optional: manifests written before static
          analysis existed simply lack it, and [diff] only compares it
          when both sides carry one. *)
       @ (match m.loops with
          | None -> []
          | Some s -> [ ("loops", json_of_loops s) ])
       @ [ ("counters",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Num (float_of_int v)))
               m.counters));
         ("histograms",
          Json.Obj
            (List.map (fun (k, s) -> (k, json_of_summary s)) m.histograms));
         ("timing",
          Json.Obj
            [ ("wall_s", Json.Num m.wall_s); ("cpu_s", Json.Num m.cpu_s) ])
       ]))

let to_json m = Json.to_string (json m)

let write path m =
  let oc = open_out path in
  output_string oc (to_json m);
  output_char oc '\n';
  close_out oc

(* Loading validates as it decodes: every [Error] names the offending
   field, so a truncated or hand-edited manifest fails loudly in
   [acstab diff] instead of comparing garbage. *)

let ( let* ) = Result.bind

let field name conv v =
  match Option.bind (Json.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "manifest: missing or ill-typed %S" name)

let opt_float name v =
  match Json.member name v with
  | None | Some Json.Null -> Ok None
  | Some (Json.Num x) -> Ok (Some x)
  | Some _ -> Error (Printf.sprintf "manifest: ill-typed %S" name)

let entry_of_json v =
  let* node = field "node" Json.to_str v in
  let* f_n = opt_float "f_n" v in
  let* zeta = opt_float "zeta" v in
  let* phase_margin_deg = opt_float "phase_margin_deg" v in
  let* peak = opt_float "peak" v in
  let* quality = field "quality" Json.to_str v in
  match quality with
  | "good" | "degraded" | "suspect" ->
    Ok { node; f_n; zeta; phase_margin_deg; peak; quality }
  | q -> Error (Printf.sprintf "manifest: unknown quality grade %S" q)

let str_list name v =
  match Json.member name v with
  | Some (Json.Arr items) ->
    let strs = List.filter_map Json.to_str items in
    if List.length strs = List.length items then Ok strs
    else Error (Printf.sprintf "manifest: %S must hold strings" name)
  | _ -> Error (Printf.sprintf "manifest: missing or ill-typed %S" name)

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let loop_of_json v =
  let* loop_id = field "id" Json.to_str v in
  let* loop_kind = field "kind" Json.to_str v in
  let* gain = field "gain_order" Json.to_float v in
  let* loop_nets = str_list "nets" v in
  Ok { loop_id; loop_kind; loop_gain_order = int_of_float gain; loop_nets }

let loops_of_json v =
  let* items = field "loops" Json.to_list v in
  let* loop_list = collect loop_of_json items in
  let* cover = str_list "cover" v in
  let* loops_truncated = field "truncated" Json.to_bool v in
  Ok { loop_list; cover; loops_truncated }

let summary_of_json v =
  let* count = field "count" Json.to_float v in
  let* p50 = field "p50" Json.to_float v in
  let* p90 = field "p90" Json.to_float v in
  let* p99 = field "p99" Json.to_float v in
  let* max = field "max" Json.to_float v in
  Ok { Obs.Histogram.count = int_of_float count; p50; p90; p99; max }

let assoc_of name conv v =
  match Json.member name v with
  | Some (Json.Obj fields) ->
    collect
      (fun (k, x) ->
        match conv x with
        | Ok y -> Ok (k, y)
        | Error e -> Error (Printf.sprintf "%s (in %S)" e name))
      fields
  | _ -> Error (Printf.sprintf "manifest: missing or ill-typed %S" name)

let num_field v =
  match v with
  | Json.Num x -> Ok x
  | _ -> Error "manifest: expected number"

let of_json_string text =
  let* v = Json.of_string text in
  let* schema = field "schema" Json.to_str v in
  if schema <> schema_version then
    Error
      (Printf.sprintf "manifest: schema %S, this tool reads %S" schema
         schema_version)
  else
    let* deck = field "deck" Option.some v in
    let* deck_file = field "file" Json.to_str deck in
    let* deck_sha256 = field "sha256" Json.to_str deck in
    let stats =
      match deck with
      | Json.Obj fields ->
        List.filter_map
          (fun (k, x) ->
            match x with
            | Json.Num n when k <> "file" && k <> "sha256" ->
              Some (k, int_of_float n)
            | _ -> None)
          fields
      | _ -> []
    in
    let* options =
      assoc_of "options"
        (fun x ->
          match Json.to_str x with
          | Some s -> Ok s
          | None -> Error "manifest: option values must be strings")
        v
    in
    let lint = Option.value ~default:(Json.Arr []) (Json.member "lint" v) in
    let* node_items = field "nodes" Json.to_list v in
    let* nodes = collect entry_of_json node_items in
    let* loops =
      match Json.member "loops" v with
      | None -> Ok None
      | Some s -> Result.map Option.some (loops_of_json s)
    in
    let* counters =
      assoc_of "counters"
        (fun x -> Result.map int_of_float (num_field x))
        v
    in
    let* histograms = assoc_of "histograms" summary_of_json v in
    let* timing = field "timing" Option.some v in
    let* wall_s = field "wall_s" Json.to_float timing in
    let* cpu_s = field "cpu_s" Json.to_float timing in
    Ok
      { deck_file; deck_sha256; stats; options; lint; nodes; loops;
        counters; histograms; wall_s; cpu_s }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_json_string text
  | exception Sys_error m -> Error m

(* --- diffing --- *)

type diff_options = { rtol_fn : float; rtol_zeta : float }

let default_diff_options = { rtol_fn = 1e-3; rtol_zeta = 1e-3 }

type change =
  | Added_peak of string
  | Removed_peak of string
  | Shifted of { node : string; field : string; a : float; b : float }
  | Downgraded of { node : string; from_ : string; to_ : string }
  | Loop_removed of string
  | Loop_added of string

let quality_rank = function
  | "good" -> 0
  | "degraded" -> 1
  | "suspect" -> 2
  | _ -> 3

let rel_exceeds rtol a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  scale > 0. && Float.abs (a -. b) /. scale > rtol

(* A is the reference, B the candidate: changes read as "B relative to
   A". Quality improvements are not regressions; only downgrades are
   reported. *)
let diff ?(options = default_diff_options) a b =
  let tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tbl e.node e) b.nodes;
  let of_b node = Hashtbl.find_opt tbl node in
  let in_a = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace in_a e.node ()) a.nodes;
  let changes =
    List.concat_map
      (fun ea ->
        match of_b ea.node with
        | None ->
          if ea.f_n = None then [] else [ Removed_peak ea.node ]
        | Some eb ->
          let shifted field rtol va vb =
            match (va, vb) with
            | Some x, Some y when rel_exceeds rtol x y ->
              [ Shifted { node = ea.node; field; a = x; b = y } ]
            | _ -> []
          in
          (match (ea.f_n, eb.f_n) with
           | Some _, None -> [ Removed_peak ea.node ]
           | None, Some _ -> [ Added_peak ea.node ]
           | _ ->
             shifted "f_n" options.rtol_fn ea.f_n eb.f_n
             @ shifted "zeta" options.rtol_zeta ea.zeta eb.zeta)
          @
          if quality_rank eb.quality > quality_rank ea.quality then
            [ Downgraded
                { node = ea.node; from_ = ea.quality; to_ = eb.quality } ]
          else [])
      a.nodes
  in
  (* Structural loops are compared only when both manifests carry the
     section: a reference written before static analysis existed cannot
     be read as "the design had no loops". A loop that disappears is a
     gated regression just like a vanished peak — a topology edit has
     broken (or opened) a feedback path the reference knew about. *)
  let loop_changes =
    match (a.loops, b.loops) with
    | Some la, Some lb ->
      let ids s = List.map (fun l -> l.loop_id) s.loop_list in
      let ida = ids la and idb = ids lb in
      List.filter_map
        (fun i -> if List.mem i idb then None else Some (Loop_removed i))
        ida
      @ List.filter_map
          (fun i -> if List.mem i ida then None else Some (Loop_added i))
          idb
    | _ -> []
  in
  changes
  @ List.filter_map
      (fun eb ->
        if Hashtbl.mem in_a eb.node || eb.f_n = None then None
        else Some (Added_peak eb.node))
      b.nodes
  @ loop_changes

(* Machine-readable changes: what `acstab diff --json` prints and what
   the serve daemon returns for a diff request, so CI consumes verdicts
   without parsing the human text. *)
let change_json = function
  | Added_peak n ->
    Json.Obj [ ("kind", Json.Str "added_peak"); ("node", Json.Str n) ]
  | Removed_peak n ->
    Json.Obj [ ("kind", Json.Str "removed_peak"); ("node", Json.Str n) ]
  | Shifted { node; field; a; b } ->
    Json.Obj
      [ ("kind", Json.Str "shifted"); ("node", Json.Str node);
        ("field", Json.Str field); ("a", Json.Num a); ("b", Json.Num b);
        ("relative",
         Json.Num
           (Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b))) ]
  | Downgraded { node; from_; to_ } ->
    Json.Obj
      [ ("kind", Json.Str "quality_downgraded"); ("node", Json.Str node);
        ("from", Json.Str from_); ("to", Json.Str to_) ]
  | Loop_removed i ->
    Json.Obj [ ("kind", Json.Str "loop_removed"); ("loop", Json.Str i) ]
  | Loop_added i ->
    Json.Obj [ ("kind", Json.Str "loop_added"); ("loop", Json.Str i) ]

let diff_json ~a ~b changes =
  Json.Obj
    [ ("schema", Json.Str "acstab-diff/1");
      ("reference", Json.Str a.deck_file);
      ("candidate", Json.Str b.deck_file);
      ("same_deck", Json.Bool (a.deck_sha256 = b.deck_sha256));
      ("nodes_compared", Json.Num (float_of_int (List.length a.nodes)));
      ("agree", Json.Bool (changes = []));
      ("changes", Json.Arr (List.map change_json changes)) ]

let pp_change ppf = function
  | Added_peak n -> Format.fprintf ppf "peak added on node %s" n
  | Removed_peak n -> Format.fprintf ppf "peak removed on node %s" n
  | Shifted { node; field; a; b } ->
    Format.fprintf ppf "%s shifted on node %s: %.6g -> %.6g (%.2g relative)"
      field node a b
      (Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b))
  | Downgraded { node; from_; to_ } ->
    Format.fprintf ppf "quality downgraded on node %s: %s -> %s" node from_
      to_
  | Loop_removed i -> Format.fprintf ppf "feedback loop removed: %s" i
  | Loop_added i -> Format.fprintf ppf "feedback loop added: %s" i
