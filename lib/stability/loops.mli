(** Loop identification: cluster the per-node stability peaks by natural
    frequency, within each strongly connected block of the pencil.

    Nodes that participate in the same feedback loop share (nearly) the
    same natural frequency, so the All-Nodes results cluster into the
    paper's "Loop at f" groups of Table 2. Clustering is single-linkage on
    log-frequency with a relative gap threshold. Nodes of different
    blocks ({!Analysis.node_result}[.block]) share no poles, so they are
    never linked: identical stages of a chain read as one loop each, not
    as one loop holding every stage. *)

type member = {
  node : Circuit.Netlist.node;
  peak : Peaks.peak;
}

type loop = {
  natural_freq : float;   (** frequency of the deepest member peak *)
  block : int;            (** the block every member lies in *)
  worst : member;         (** the member with the deepest peak *)
  members : member list;  (** all members, deepest first *)
}

val cluster : ?rel_gap:float -> Analysis.node_result list -> loop list
(** Build loops from each node's dominant peak. Two adjacent (in frequency)
    peaks of one block belong to the same loop when their frequency ratio
    is below [1 + rel_gap] (default 0.25). Loops are returned sorted by
    ascending natural frequency, loops at equal frequency by block; nodes
    without a complex-pole peak are dropped. *)

val estimated_phase_margin : loop -> float option
(** Exact second-order phase margin of the loop's worst member. *)

val pp : Format.formatter -> loop -> unit
