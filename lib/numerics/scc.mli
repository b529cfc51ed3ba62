(** Strongly connected components of a directed graph.

    The vertices are [0 .. n-1] and the graph is an adjacency array
    ([adj.(v)] lists the successors of [v], duplicates allowed). Two
    users share this one routine: the signal-flow loop report
    ([Staticanalysis.Cycles] and [Staticanalysis.Report]) and the
    block-triangular split of the small-signal pencil
    ([Engine.Blocks]). *)

val components : int list array -> int list list
(** Strongly connected components (Tarjan), singletons included. Each
    component is sorted ascending; components are ordered by their
    minimum vertex. *)
