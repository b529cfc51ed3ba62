type member = {
  node : Circuit.Netlist.node;
  peak : Peaks.peak;
}

type loop = {
  natural_freq : float;
  block : int;
  worst : member;
  members : member list;
}

let cluster ?(rel_gap = 0.25) (results : Analysis.node_result list) =
  (* By block, then by frequency within a block; the sort is stable, so
     equal frequencies keep the caller's order. *)
  let entries =
    List.filter_map
      (fun (r : Analysis.node_result) ->
        Option.map (fun pk -> (r.block, { node = r.node; peak = pk }))
          r.dominant)
      results
    |> List.stable_sort (fun (ba, a) (bb, b) ->
        compare (ba, a.peak.Peaks.freq) (bb, b.peak.Peaks.freq))
  in
  let close (ba, a) (bb, b) =
    ba = bb && b.peak.Peaks.freq /. a.peak.Peaks.freq <= 1. +. rel_gap
  in
  let rec group acc current = function
    | [] -> List.rev (match current with [] -> acc | c -> List.rev c :: acc)
    | e :: rest ->
      (match current with
       | [] -> group acc [ e ] rest
       | last :: _ when close last e -> group acc (e :: current) rest
       | _ -> group (List.rev current :: acc) [ e ] rest)
  in
  let groups = group [] [] entries in
  groups
  |> List.map (fun entries ->
      let block = fst (List.hd entries) in
      let by_depth =
        List.sort
          (fun a b -> compare a.peak.Peaks.value b.peak.Peaks.value)
          (List.map snd entries)
      in
      match by_depth with
      | [] -> assert false
      | worst :: _ ->
        { natural_freq = worst.peak.Peaks.freq; block; worst;
          members = by_depth })
  |> List.stable_sort (fun a b ->
      compare (a.natural_freq, a.block) (b.natural_freq, b.block))

let estimated_phase_margin l = l.worst.peak.Peaks.phase_margin_deg

let pp ppf l =
  Format.fprintf ppf "Loop at %sHz (%d nodes, deepest peak %.2f at %s)"
    (Numerics.Engnum.format l.natural_freq)
    (List.length l.members) l.worst.peak.Peaks.value l.worst.node;
  match estimated_phase_margin l with
  | Some pm -> Format.fprintf ppf ", est. PM %.1f deg" pm
  | None -> ()
