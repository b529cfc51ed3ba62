(* Rendering of the static signal-flow report: the text `acstab loops`
   prints (and the @staticcheck goldens byte-compare), the
   [acstab-loops/1] JSON document, and the manifest section. Every
   collection in the underlying report is deterministically ordered, so
   both renderings are byte-stable for a given deck. *)

let schema_version = "acstab-loops/1"

let section (r : Staticanalysis.Report.t) =
  { Manifest.loop_list =
      List.map
        (fun (l : Staticanalysis.Report.loop) ->
          { Manifest.loop_id = l.id;
            loop_kind = Staticanalysis.Report.kind_string l.kind;
            loop_gain_order = l.gain_order;
            loop_nets = l.nets })
        r.loops;
    cover = r.cover;
    loops_truncated = r.truncated }

let names = function [] -> "none" | l -> String.concat " " l

let render ~deck (r : Staticanalysis.Report.t) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "static signal-flow report: %s\n" deck;
  pr "nets: %d  edges: %d  pinned: %s\n" r.nets r.edges (names r.pinned);
  pr "loops: %d%s\n" (List.length r.loops)
    (if r.truncated then "  (truncated: enumeration bounds hit)" else "");
  List.iteri
    (fun i (l : Staticanalysis.Report.loop) ->
      pr "  [%d] %s gain=%d %s\n" (i + 1)
        (Staticanalysis.Report.kind_string l.kind)
        l.gain_order l.id;
      pr "      devices: %s\n" (names l.devices);
      pr "      cover net: %s\n"
        (match Staticanalysis.Report.covers r l with
         | Some n -> n
         | None -> "unobservable"))
    r.loops;
  pr "probe cover: %s\n" (names r.cover);
  (match r.undrivable with
   | None -> pr "undrivable: n/a (no independent sources)\n"
   | Some nets -> pr "undrivable: %s\n" (names nets));
  pr "open gain: %s\n" (names r.open_gain);
  Buffer.contents buf

let json ~deck ~sha256 (r : Staticanalysis.Report.t) =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  let loop (l : Staticanalysis.Report.loop) =
    Json.Obj
      [ ("id", Json.Str l.id);
        ("kind", Json.Str (Staticanalysis.Report.kind_string l.kind));
        ("gain_order", Json.Num (float_of_int l.gain_order));
        ("nets", strs l.nets);
        ("devices", strs l.devices);
        ("probeable", strs l.probeable);
        ("cover_net",
         match Staticanalysis.Report.covers r l with
         | Some n -> Json.Str n
         | None -> Json.Null) ]
  in
  Json.Obj
    [ ("schema", Json.Str schema_version);
      ("deck",
       Json.Obj [ ("file", Json.Str deck); ("sha256", Json.Str sha256) ]);
      ("nets", Json.Num (float_of_int r.nets));
      ("edges", Json.Num (float_of_int r.edges));
      ("pinned", strs r.pinned);
      ("truncated", Json.Bool r.truncated);
      ("loops", Json.Arr (List.map loop r.loops));
      ("cover", strs r.cover);
      ("uncovered",
       strs (List.map (fun (l : Staticanalysis.Report.loop) -> l.id) r.uncovered));
      ("undrivable",
       match r.undrivable with None -> Json.Null | Some nets -> strs nets);
      ("open_gain", strs r.open_gain) ]
