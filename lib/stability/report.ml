let fmt_freq f = Printf.sprintf "%.2E" f

let notice_suffix (p : Peaks.peak) =
  match p.Peaks.notices with
  | [] -> ""
  | ns ->
    let s =
      List.map
        (function
          | Peaks.End_of_range -> "end-of-range"
          | Peaks.Min_max_doublet -> "min/max"
          | Peaks.Real_pole_like -> "real-pole-like"
          | Peaks.Pole_shoulder -> "pole-shoulder")
        ns
    in
    "  ! " ^ String.concat ", " s

let all_nodes ?rel_gap ppf results =
  let loops = Loops.cluster ?rel_gap results in
  Format.fprintf ppf
    "Stability Plot peak values for all circuit nodes sorted by loop's \
     natural frequency.@.@.";
  Format.fprintf ppf "%-16s %-16s %-20s@." "Node" "Stability Peak"
    "Natural Frequency, Hz";
  List.iter
    (fun (l : Loops.loop) ->
      Format.fprintf ppf "Loop at %sHz" (Numerics.Engnum.format l.natural_freq);
      (match Loops.estimated_phase_margin l with
       | Some pm ->
         Format.fprintf ppf "   (est. zeta %.2f, phase margin %.0f deg)"
           (Option.value ~default:Float.nan l.worst.peak.Peaks.zeta)
           pm
       | None -> ());
      Format.fprintf ppf "@.";
      List.iter
        (fun (m : Loops.member) ->
          Format.fprintf ppf "%-16s %-16.6f %-20s%s@." m.node
            (Float.abs m.peak.Peaks.value)
            (fmt_freq m.peak.Peaks.freq)
            (notice_suffix m.peak))
        l.members)
    loops;
  let silent =
    List.filter (fun (r : Analysis.node_result) -> r.dominant = None) results
  in
  if silent <> [] then begin
    Format.fprintf ppf "@.Nodes with no complex-pole peak above threshold:@.";
    List.iter
      (fun (r : Analysis.node_result) -> Format.fprintf ppf "  %s@." r.node)
      silent
  end;
  let degraded =
    List.filter (fun (r : Analysis.node_result) -> r.degraded > 0) results
  in
  if degraded <> [] then begin
    Format.fprintf ppf
      "@.Degraded nodes (underflowed/non-finite response samples clamped; \
       peaks near the clamp are floor artefacts):@.";
    List.iter
      (fun (r : Analysis.node_result) ->
        Format.fprintf ppf "  %-16s %d sample(s) clamped@." r.node r.degraded)
      degraded
  end;
  let flagged =
    List.filter (fun (r : Analysis.node_result) -> r.quality <> Analysis.Good) results
  in
  if flagged <> [] then begin
    Format.fprintf ppf
      "@.Numerical health (worst sampled factorisation rcond/residual of \
       the node's block, plus per-node clamps):@.";
    List.iter
      (fun (r : Analysis.node_result) ->
        Format.fprintf ppf "  %-16s %s@." r.node
          (Analysis.quality_string r.quality))
      flagged
  end

let single_node ppf (r : Analysis.node_result) =
  Format.fprintf ppf "Stability analysis of node %S@." r.node;
  if r.quality <> Analysis.Good then
    Format.fprintf ppf "  numerical health: %s@."
      (Analysis.quality_string r.quality);
  if r.degraded > 0 then
    Format.fprintf ppf
      "  DEGRADED: %d response sample(s) clamped (underflowed notch or \
       non-finite solve); nearby peaks are floor artefacts@."
      r.degraded;
  (match r.peaks with
   | [] ->
     Format.fprintf ppf
       "  no significant stability-plot peaks (no complex roots seen from \
        this node)@."
   | peaks ->
     List.iter
       (fun (p : Peaks.peak) -> Format.fprintf ppf "  %a@." Peaks.pp p)
       peaks);
  match r.dominant with
  | Some d ->
    Format.fprintf ppf "  dominant: peak %.3f at %sHz" d.Peaks.value
      (Numerics.Engnum.format d.Peaks.freq);
    (match (d.zeta, d.phase_margin_deg, d.overshoot_pct) with
     | Some z, Some pm, Some os ->
       Format.fprintf ppf
         " -> zeta %.3f, est. phase margin %.1f deg (Table 1 rule: %.0f \
          deg), est. overshoot %.0f%%"
         z pm
         (Control.Second_order.phase_margin_rule z)
         os
     | _ -> ());
    Format.fprintf ppf "@."
  | None -> Format.fprintf ppf "  no dominant complex pole.@."

let all_nodes_string ?rel_gap results =
  Format.asprintf "%a" (fun ppf -> all_nodes ?rel_gap ppf) results

let single_node_string r = Format.asprintf "%a" single_node r
