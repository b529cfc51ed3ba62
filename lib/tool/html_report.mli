(** Self-contained HTML reports with embedded SVG plots — the shareable
    counterpart of the text reports, standing in for the paper's plotted
    figures (stability plots like Fig 4, annotated summaries like Fig 5). *)

val single_node :
  Circuit.Netlist.t -> Stability.Analysis.node_result ->
  Stability.Stability_plot.t -> string
(** A report for one net from its result and its coarse plot
    ({!Pipeline.coarse_plots}): the probed magnitude response, the
    stability plot with its peaks, and the damping/phase-margin
    estimates. *)

val all_nodes :
  plots:
    (Circuit.Netlist.node list ->
     (Circuit.Netlist.node * Stability.Stability_plot.t) list) ->
  Circuit.Netlist.t -> Stability.Analysis.node_result list -> string
(** The all-nodes report: the loop table (Table 2 style), a stability-plot
    chart overlaying the worst node of each loop, and the netlist.
    [plots] draws the coarse plots of the nets it is given
    ({!Pipeline.coarse_plots}); it is called once, with the worst node
    of each loop, and not at all when there is no loop. *)

val write : string -> string -> unit
(** [write path html] saves a report. *)
