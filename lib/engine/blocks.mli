(** The strongly connected blocks of the small-signal pencil.

    Order the unknowns by the strongly connected components of the
    pattern of [G + sC] ({!Stamps.pencil}: an edge i -> j for every
    stamped entry (i, j)), with the same permutation for rows and
    columns, and the pencil becomes block-triangular. Its determinant is
    the product of the diagonal blocks' determinants, and the diagonal
    blocks of its inverse are the inverses of those blocks. So the
    driving-point response at unknown k, [e_k' (G + sC)^-1 e_k], and
    the poles of the system, block by block, depend only on the
    diagonal blocks: off-diagonal coupling moves signals from one block
    to the next but closes no loop. This is the block-triangular form
    that KLU factors block by block (Davis and Palamadai Natarajan,
    ACM TOMS 2010).

    A chain of stages that each drive the next through a one-way buffer
    splits into one block per stage; a circuit whose every unknown
    reaches every other, like the paper's op-amp, is one block, and
    then the map is the identity. Only the partition matters here, not
    the order of the blocks. *)

type t = private {
  block_of : int array;       (** unknown -> its block *)
  local : int array;          (** unknown -> its index inside its block *)
  members : int array array;  (** block -> its unknowns, ascending *)
}

val whole : int -> t
(** One block holding all [n] unknowns: [local] is the identity. *)

val of_pencil : Mna.t -> Linearize.prim list -> t
(** The strongly connected components of the stamped pattern of
    {!Stamps.pencil} over [mna] and the linearised primitives. Blocks
    are numbered by their smallest unknown. Structural: the values,
    gmin included, play no part. *)

val count : t -> int
(** Number of blocks. *)

val size : t -> int -> int
(** Unknowns in block [b]. *)

val pencil :
  t -> Mna.t -> Linearize.prim list -> gmin:float ->
  (int -> int -> int -> float -> float -> unit) -> unit
(** One fold of {!Stamps.pencil}, keeping the entries inside a diagonal
    block: [f b i j g c] with [i], [j] indices local to block [b], in the
    pencil's own order. Entries between blocks are dropped. On {!whole}
    it is {!Stamps.pencil} itself. *)
