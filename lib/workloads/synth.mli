(** Parameterised synthetic circuits for production-scale benchmarking.

    The shipped op-amp decks have ~15-40 unknowns — fine for golden
    reports, useless for measuring scheduler and sparse-solver scaling.
    These generators produce linear, lint-clean, connected decks with
    closed-form unknown counts, from hundreds to tens of thousands of
    unknowns:

    - {!rc_mesh}: a rows x cols resistor grid with a capacitor to
      ground at every node — 2-D sparsity, the stress case for fill-in.
    - {!rc_tree}: a fanout-ary RC tree ({!Ladder.rc} generalised from a
      chain to a tree) — extreme sparsity, long signal paths.
    - {!amp_array}: chained copies of the shipped two-pole behavioural
      feedback loop — every stage a genuine resonant loop, the workload
      the paper's probe-every-node methodology targets.

    All three are exportable via [acstab synth]; the test suite runs
    small instances sequentially and pooled and requires identical
    bits. *)

val rc_mesh :
  ?r:float -> ?c:float -> rows:int -> cols:int -> unit ->
  Circuit.Netlist.t
(** [rows * cols] grid nodes [m<i>_<j>], 1 kOhm between lattice
    neighbours, 1 nF from every node to ground, AC-driven at
    [m0_0]. *)

val mesh_node : int -> int -> Circuit.Netlist.node
(** [mesh_node i j] is the grid net name ["m<i>_<j>"]. *)

val mesh_unknowns : rows:int -> cols:int -> int
(** Unknown count of {!rc_mesh}: [rows * cols + 1] (nodes plus the
    source branch). *)

val rc_tree :
  ?r:float -> ?c:float -> depth:int -> fanout:int -> unit ->
  Circuit.Netlist.t
(** Complete [fanout]-ary RC tree of the given depth (root = depth 0),
    AC-driven at the root [t0]; node [k]'s parent is [(k-1)/fanout]. *)

val tree_node : int -> Circuit.Netlist.node
(** [tree_node k] is the tree net name ["t<k>"]. *)

val tree_count : depth:int -> fanout:int -> int
(** Number of tree nodes: [sum over l <= depth of fanout^l]. *)

val tree_unknowns : depth:int -> fanout:int -> int
(** Unknown count of {!rc_tree}: [tree_count + 1]. *)

val amp_array : ?av:float -> stages:int -> unit -> Circuit.Netlist.t
(** [stages] copies of the two-pole behavioural feedback loop (gain
    block, two RC poles, unity buffer, resistive feedback), each stage's
    input chained to the previous stage's closed-loop output, the first
    driven by an AC source on net ["in"]. *)

val amp_stage_out : int -> Circuit.Netlist.node
(** Closed-loop output net of stage [s]: ["fb_<s>"]. *)

val amp_array_unknowns : stages:int -> int
(** Unknown count of {!amp_array}: [7 * stages + 2] (five nodes and two
    controlled-source branches per stage, plus the input net and source
    branch). *)
