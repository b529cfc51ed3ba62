(* The benchmark's correctness gate: right answers pass, and each
   planted wrong answer — an f_n shifted beyond tolerance, a missing
   node, a stale answer (variant k answered with variant k-1's result),
   a wrong cache verdict — counts as failed. *)

open Perfbench

let golden =
  match Tool.Manifest.load "../golden/opamp_allnodes.json" with
  | Ok m -> m
  | Error e -> failwith e

let seed = 11

(* An answer shaped like the daemon's analyze response. *)
let answer ?(cache = "miss") text mode =
  let req =
    Tool.Pipeline.request
      (Tool.Pipeline.Deck_text { name = "deck.sp"; text })
      mode
  in
  match Tool.Pipeline.run ~cache:(Tool.Cache.create ()) req with
  | Error f -> failwith (Tool.Pipeline.failure_message f)
  | Ok o ->
    let m = Tool.Manifest.json o.Tool.Pipeline.manifest in
    Tool.Json.Obj
      [ ("request_id", Tool.Json.Str "r000001"); ("ok", Tool.Json.Bool true);
        ("cache", Tool.Json.Str cache);
        ("deck_sha256", Tool.Json.Str o.Tool.Pipeline.loaded.Tool.Pipeline.sha256);
        ("nodes", Option.get (Tool.Json.member "nodes" m)); ("manifest", m) ]

let set_member name v = function
  | Tool.Json.Obj kv ->
    Tool.Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) kv)
  | j -> j

let map_nodes f j =
  match Option.bind (Tool.Json.member "nodes" j) Tool.Json.to_list with
  | Some ns -> set_member "nodes" (Tool.Json.Arr (f ns)) j
  | None -> j

let is_node n e = Tool.Json.mem_str "node" e = Some n

let passes what v =
  match v with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: expected to pass, failed with %s" what e

let fails what v =
  match v with
  | Ok () -> Alcotest.failf "%s: wrong answer passed the gate" what
  | Error _ -> ()

(* ---- cli_allnodes and serve_warm: manifests against the golden ---- *)

let shift_node node factor (m : Tool.Manifest.t) =
  { m with
    nodes =
      List.map
        (fun (e : Tool.Manifest.node_entry) ->
          if e.node = node then { e with f_n = Option.map (( *. ) factor) e.f_n }
          else e)
        m.nodes }

let test_manifest_gate () =
  passes "golden" (Gate.opamp_manifest ~golden golden);
  passes "f_n within tolerance"
    (Gate.opamp_manifest ~golden (shift_node "out" (1. +. 5e-4) golden));
  fails "f_n shifted"
    (Gate.opamp_manifest ~golden (shift_node "out" (1. +. 3e-3) golden));
  fails "missing node"
    (Gate.opamp_manifest ~golden
       { golden with
         nodes = List.filter (fun (e : Tool.Manifest.node_entry) -> e.node <> "npb") golden.nodes })

let test_warm_reply () =
  let text = Decks.opamp ~seed in
  let deck_sha256 = Tool.Sha256.digest text in
  let hit = answer ~cache:"hit" text (Tool.Pipeline.All_nodes None) in
  passes "warm hit" (Gate.warm_reply ~golden ~deck_sha256 hit);
  fails "cache miss on serve_warm"
    (Gate.warm_reply ~golden ~deck_sha256 (set_member "cache" (Tool.Json.Str "miss") hit));
  fails "not ok"
    (Gate.warm_reply ~golden ~deck_sha256 (set_member "ok" (Tool.Json.Bool false) hit));
  fails "answer for another deck"
    (Gate.warm_reply ~golden ~deck_sha256:(Tool.Sha256.digest (Decks.opamp ~seed:(seed + 1))) hit)

(* ---- serve_campaign: the peak at fb_19 against the closed form ---- *)

let single = Tool.Pipeline.Single_node Decks.campaign_node

let check k j =
  let text = Decks.variant ~seed k in
  Gate.campaign_reply ~deck_text:text ~expected:(Decks.closed_form text) j

let test_unperturbed_tolerance () =
  (* The tolerances were fixed on the unperturbed deck: it must pass. *)
  let text = Circuit.Netlist.to_spice (Workloads.Synth.amp_array ~stages:Decks.stages ()) in
  passes "unperturbed deck"
    (Gate.campaign_reply ~deck_text:text ~expected:(Decks.closed_form text)
       (answer text single))

let test_campaign_gate () =
  (* A variant whose closed-form f_n differs from its predecessor's by
     several tolerances, so a stale answer is wrong in its numbers as
     well as in its fingerprint. *)
  let fn k = fst (Decks.closed_form (Decks.variant ~seed k)) in
  let rec pick k =
    if Gate.rel (fn k) (fn (k - 1)) > 5. *. Gate.rtol_fn then k else pick (k + 1)
  in
  let k = pick 1 in
  let right = answer (Decks.variant ~seed k) single in
  passes "variant answer" (check k right);
  fails "f_n shifted"
    (check k
       (map_nodes
          (List.map (fun e ->
               if is_node Decks.campaign_node e then
                 set_member "f_n"
                   (Tool.Json.Num
                      (Option.get (Tool.Json.mem_float "f_n" e) *. (1. +. (3. *. Gate.rtol_fn))))
                   e
               else e))
          right));
  fails "missing node"
    (check k (map_nodes (List.filter (fun e -> not (is_node Decks.campaign_node e))) right));
  let stale = answer (Decks.variant ~seed (k - 1)) single in
  fails "stale answer" (check k stale);
  fails "stale numbers under the right fingerprint"
    (check k (set_member "deck_sha256" (Option.get (Tool.Json.member "deck_sha256" right)) stale));
  fails "cache hit on serve_campaign" (check k (set_member "cache" (Tool.Json.Str "hit") right))

let () =
  Parallel.Pool.set_jobs 1;
  Alcotest.run "perfbench-gate"
    [ ("gate",
       [ Alcotest.test_case "op-amp manifests" `Quick test_manifest_gate;
         Alcotest.test_case "serve_warm answers" `Quick test_warm_reply;
         Alcotest.test_case "unperturbed tolerance" `Quick test_unperturbed_tolerance;
         Alcotest.test_case "serve_campaign answers" `Quick test_campaign_gate ]) ]
