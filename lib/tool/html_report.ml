open Numerics

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let page ~title body =
  Printf.sprintf
    {|<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>
<style>
body { font-family: sans-serif; margin: 2em auto; max-width: 60em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #bbb; padding: 4px 10px; text-align: left; }
th { background: #f0f0f0; }
pre { background: #f7f7f7; padding: 1em; overflow-x: auto; }
.note { color: #a40; font-size: 0.9em; }
footer { margin-top: 2.5em; color: #777; font-size: 0.85em; }
</style></head><body>
%s
<footer>%s — AC-stability analysis per Milev &amp; Burt, DATE 2005.</footer>
</body></html>
|}
    (esc title) body (esc Diagnostics.tool_version)

let plot_of_node (r : Stability.Analysis.node_result) plot =
  let stab =
    Svgplot.render
      (Svgplot.config ~x_axis:Svgplot.Log
         ~title:(Printf.sprintf "Stability plot at %s" r.node)
         ~x_label:"frequency [Hz]" ~y_label:"P" ())
      [ Svgplot.series "P(f)" plot.Stability.Stability_plot.freqs
          plot.Stability.Stability_plot.p ]
  in
  let mag =
    Svgplot.render
      (Svgplot.config ~x_axis:Svgplot.Log ~y_axis:Svgplot.Log
         ~title:(Printf.sprintf "Probe response |Z| at %s" r.node)
         ~x_label:"frequency [Hz]" ~y_label:"|Z| [Ohm]" ())
      [ Svgplot.series "|Z(f)|" plot.Stability.Stability_plot.freqs
          plot.Stability.Stability_plot.mag ]
  in
  (stab, mag)

let peak_rows (peaks : Stability.Peaks.peak list) =
  peaks
  |> List.map (fun (p : Stability.Peaks.peak) ->
      Printf.sprintf
        "<tr><td>%s</td><td>%sHz</td><td>%.3f</td><td>%s</td><td>%s</td>\
         <td>%s</td></tr>"
        (match p.kind with
         | Stability.Peaks.Complex_pole -> "pole"
         | Stability.Peaks.Complex_zero -> "zero")
        (Engnum.format p.freq) p.value
        (match p.zeta with
         | Some z -> Printf.sprintf "%.3f" z
         | None -> "–")
        (match p.phase_margin_deg with
         | Some pm -> Printf.sprintf "%.1f°" pm
         | None -> "–")
        (esc
           (String.concat ", "
              (List.map
                 (function
                   | Stability.Peaks.End_of_range -> "end-of-range"
                   | Stability.Peaks.Min_max_doublet -> "min/max"
                   | Stability.Peaks.Real_pole_like -> "real-pole-like"
                   | Stability.Peaks.Pole_shoulder -> "shoulder")
                 p.notices))))
  |> String.concat "\n"

let peak_table peaks =
  Printf.sprintf
    "<table><tr><th>kind</th><th>natural frequency</th><th>peak</th>\
     <th>zeta</th><th>est. PM</th><th>notices</th></tr>%s</table>"
    (peak_rows peaks)

let single_node circ (r : Stability.Analysis.node_result) plot =
  let stab_svg, mag_svg = plot_of_node r plot in
  let body =
    Printf.sprintf
      {|<h1>Stability analysis of net "%s" — %s</h1>
%s
%s
<h2>Detected peaks</h2>
%s
<h2>Netlist</h2>
<pre>%s</pre>|}
      (esc r.node)
      (esc (Circuit.Netlist.title circ))
      stab_svg mag_svg
      (peak_table r.peaks)
      (esc (Circuit.Netlist.to_spice circ))
  in
  page ~title:(Printf.sprintf "acstab: %s" r.node) body

let all_nodes ~plots circ results =
  let loops = Stability.Loops.cluster results in
  let loop_rows =
    loops
    |> List.concat_map (fun (l : Stability.Loops.loop) ->
        List.mapi
          (fun i (m : Stability.Loops.member) ->
            Printf.sprintf
              "<tr>%s<td>%s</td><td>%.6f</td><td>%.2E</td></tr>"
              (if i = 0 then
                 Printf.sprintf
                   "<td rowspan=\"%d\">%sHz%s</td>"
                   (List.length l.Stability.Loops.members)
                   (Engnum.format l.Stability.Loops.natural_freq)
                   (match Stability.Loops.estimated_phase_margin l with
                    | Some pm -> Printf.sprintf "<br>PM ≈ %.0f°" pm
                    | None -> "")
               else "")
              (esc m.Stability.Loops.node)
              (Float.abs m.Stability.Loops.peak.Stability.Peaks.value)
              m.Stability.Loops.peak.Stability.Peaks.freq)
          l.Stability.Loops.members)
    |> String.concat "\n"
  in
  (* Overlay the stability plots of each loop's worst node, drawn in
     one call for all of them. *)
  let overlay =
    let worst =
      List.map
        (fun (l : Stability.Loops.loop) ->
          l.Stability.Loops.worst.Stability.Loops.node)
        loops
    in
    let ss =
      List.map
        (fun (node, plot) ->
          Svgplot.series node plot.Stability.Stability_plot.freqs
            plot.Stability.Stability_plot.p)
        (match worst with [] -> [] | nodes -> plots nodes)
    in
    match ss with
    | [] -> ""
    | _ ->
      Svgplot.render
        (Svgplot.config ~x_axis:Svgplot.Log
           ~title:"Stability plots (worst node per loop)"
           ~x_label:"frequency [Hz]" ~y_label:"P" ())
        ss
  in
  let silent =
    List.filter
      (fun (r : Stability.Analysis.node_result) ->
        r.Stability.Analysis.dominant = None)
      results
  in
  let body =
    Printf.sprintf
      {|<h1>All-nodes stability report — %s</h1>
<h2>Loops (Table 2 style)</h2>
<table><tr><th>loop</th><th>node</th><th>stability peak</th>
<th>natural frequency [Hz]</th></tr>
%s</table>
%s
%s
<h2>Netlist</h2>
<pre>%s</pre>|}
      (esc (Circuit.Netlist.title circ))
      loop_rows overlay
      (if silent = [] then ""
       else
         Printf.sprintf
           "<p class=\"note\">nodes with no complex-pole peak above the \
            threshold: %s</p>"
           (esc
              (String.concat ", "
                 (List.map
                    (fun (r : Stability.Analysis.node_result) -> r.node)
                    silent))))
      (esc (Circuit.Netlist.to_spice circ))
  in
  page ~title:"acstab: all-nodes report" body

let write path html =
  let oc = open_out path in
  output_string oc html;
  close_out oc
