(** Small-signal linearisation of the nonlinear devices at an operating
    point.

    Produces a list of linear primitives (conductances, transconductance
    quads and capacitances) equivalent to each diode/BJT/MOSFET around the
    bias point. {!Stamps.pencil} stamps these into G + sC. *)

type prim = Stamps.prim =
  | L_g of { i : int; j : int; g : float }
      (** conductance between nodes [i], [j] (-1 = ground) *)
  | L_quad of { out_p : int; out_m : int; ctrl_p : int; ctrl_m : int;
                gm : float }
      (** VCCS: current [gm * (v ctrl_p - v ctrl_m)] flows out of node
          [out_p], through the element, into [out_m]. *)
  | L_c of { i : int; j : int; c : float }

val of_op : Dcop.t -> prim list
(** Primitives for every nonlinear device of the circuit at the given
    operating point. Linear devices are not included ({!Stamps.pencil}
    stamps them directly). *)
