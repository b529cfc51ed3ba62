(* The correctness gate every measured request passes through, applied
   after the timed window so checking never counts as request time.

   A request fails on a non-zero exit, on an "ok": false answer, on a
   result-cache verdict other than the workload's (hit on serve_warm,
   miss on serve_campaign), on an answer for another deck than the one
   sent, or when its numbers disagree with the reference. *)

type verdict = (unit, string) result

let nets (m : Tool.Manifest.t) =
  List.sort compare
    (List.map (fun (e : Tool.Manifest.node_entry) -> e.node) m.nodes)

(* cli_allnodes and serve_warm: the manifest lists exactly the golden's
   nets, and [Tool.Manifest.diff] at its default tolerances (1e-3 on
   f_n and zeta, quality downgrades, loop records) finds no change. The
   net check matters because the diff ignores a vanished net that had
   no peak in the golden. *)
let opamp_manifest ~golden (m : Tool.Manifest.t) : verdict =
  if nets m <> nets golden then
    Error
      (Printf.sprintf "nets [%s], golden has [%s]"
         (String.concat " " (nets m))
         (String.concat " " (nets golden)))
  else
    match Tool.Manifest.diff golden m with
    | [] -> Ok ()
    | changes ->
      Error
        (String.concat "; "
           (List.map (Format.asprintf "%a" Tool.Manifest.pp_change) changes))

(* A serve answer's envelope: ok, the workload's cache verdict, and the
   fingerprint of the deck that was sent (a stale answer for another
   deck fails here whatever its numbers). *)
let serve_reply ~cache ~deck_sha256 (j : Tool.Json.t) : verdict =
  match Tool.Json.mem_bool "ok" j with
  | Some true ->
    (match Tool.Json.mem_str "cache" j with
     | Some v when v = cache ->
       (match Tool.Json.mem_str "deck_sha256" j with
        | Some s when s = deck_sha256 -> Ok ()
        | _ -> Error "answer is for another deck")
     | v ->
       Error
         (Printf.sprintf "cache verdict %s, workload expects %s"
            (Option.value ~default:"<absent>" v) cache))
  | _ -> Error ("request failed: " ^ Tool.Json.to_string j)

let embedded_manifest (j : Tool.Json.t) =
  match Tool.Json.member "manifest" j with
  | Some m -> Tool.Manifest.of_json_string (Tool.Json.to_string m)
  | None -> Error "answer carries no manifest"

(* Tolerances of the closed-form check, fixed on the unperturbed
   campaign deck: there the tool reads f_n 15.9236 MHz and zeta 0.05554
   against the formula's 15.9235 MHz and 0.05497 (gaps 1.1e-5 and
   1.03e-2). The zeta gap is the formula's: it leaves out the stage's
   1 MOhm load, which adds R2/RL = 1% to the damping term on every
   variant. f_n takes the manifest diff's 1e-3, about a hundred times
   its gap; zeta twice its gap. *)
let rtol_fn = 1e-3
let rtol_zeta = 2e-2

let rel a b = Float.abs (a -. b) /. Float.abs b

(* serve_campaign: the dominant peak the answer reports at the probed
   net against the closed form of that variant's last stage. *)
let campaign_peak ~expected:(fn, zeta) (j : Tool.Json.t) : verdict =
  let entries =
    Option.value ~default:[]
      (Option.bind (Tool.Json.member "nodes" j) Tool.Json.to_list)
  in
  match
    List.find_opt
      (fun e -> Tool.Json.mem_str "node" e = Some Decks.campaign_node)
      entries
  with
  | None -> Error ("no entry for " ^ Decks.campaign_node)
  | Some e ->
    (match (Tool.Json.mem_float "f_n" e, Tool.Json.mem_float "zeta" e) with
     | Some f, Some z ->
       if rel f fn > rtol_fn then
         Error (Printf.sprintf "f_n %.6g Hz, closed form %.6g Hz" f fn)
       else if rel z zeta > rtol_zeta then
         Error (Printf.sprintf "zeta %.5g, closed form %.5g" z zeta)
       else Ok ()
     | _ -> Error ("no dominant peak at " ^ Decks.campaign_node))

let campaign_reply ~deck_text ~expected (j : Tool.Json.t) : verdict =
  Result.bind
    (serve_reply ~cache:"miss" ~deck_sha256:(Tool.Sha256.digest deck_text) j)
    (fun () -> campaign_peak ~expected j)

let warm_reply ~golden ~deck_sha256 (j : Tool.Json.t) : verdict =
  Result.bind (serve_reply ~cache:"hit" ~deck_sha256 j) (fun () ->
      Result.bind (embedded_manifest j) (opamp_manifest ~golden))
