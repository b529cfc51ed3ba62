(** Elementary-cycle enumeration over small directed graphs.

    The vertices of a graph are [0 .. n-1] and the graph itself is an
    adjacency array ([adj.(v)] lists the successors of [v], duplicates
    allowed — they are deduplicated internally). This is the engine
    behind the signal-flow feedback-loop report: {!Sfg} reduces a
    netlist to such a digraph and {!Report} names the cycles found
    here.

    [enumerate] is Johnson's algorithm (SCC preprocessing plus a
    blocked depth-first search), bounded so that pathological meshes —
    elementary-cycle counts grow exponentially with mesh size — cannot
    hang a lint pass. Within the bounds the enumeration is exhaustive
    and deterministic. *)

type bounds = {
  max_len : int;     (** longest cycle reported, in vertices *)
  max_cycles : int;  (** total cycles reported before giving up *)
}

val default_bounds : bounds
(** [{ max_len = 16; max_cycles = 4096 }] — far above any feedback
    structure a designer would recognise as a loop, far below a mesh
    blow-up. *)

val enumerate : ?bounds:bounds -> int list array -> int list list * bool
(** All elementary cycles of the graph, within [bounds]. Every cycle is
    reported once, rotated to start at its minimum vertex (a self-loop
    is the one-vertex cycle [[v]]); the list is sorted lexicographically
    so equal graphs always enumerate identically. The flag is [true]
    when a bound was hit: cycles within the bounds are still all
    present, but longer or later ones may be missing. *)
