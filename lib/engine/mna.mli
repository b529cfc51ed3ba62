(** Modified nodal analysis: unknown layout and the compiled circuit.

    The unknown vector is [node voltages] (indices [0 .. n_nodes-1], ground
    excluded) followed by [branch currents] for every voltage-defined
    element: independent voltage sources, inductors, VCVS and CCVS. Ground
    is index [-1] and is skipped by all stamps. *)

type elem =
  | E_res of { i : int; j : int; g : float }
  | E_cap of { i : int; j : int; c : float; ic : float option }
  | E_ind of { i : int; j : int; l : float; br : int; ic : float option }
  | E_vsrc of { i : int; j : int; br : int; spec : Circuit.Netlist.source_spec }
  | E_isrc of { i : int; j : int; spec : Circuit.Netlist.source_spec }
  | E_vcvs of { i : int; j : int; ci : int; cj : int; br : int; gain : float }
  | E_vccs of { i : int; j : int; ci : int; cj : int; gm : float }
  | E_cccs of { i : int; j : int; cbr : int; gain : float }
  | E_ccvs of { i : int; j : int; cbr : int; br : int; rm : float }
  | E_diode of { i : int; j : int; p : Devices.Diode_model.params;
                 area : float }
  | E_bjt of { c : int; b : int; e : int; p : Devices.Bjt_model.params;
               area : float; sign : float }
      (** [sign] is +1 for NPN, -1 for PNP; junction voltages are multiplied
          by it before the NPN-referenced model is evaluated and terminal
          currents after. *)
  | E_mos of { d : int; g : int; s : int; b : int;
               p : Devices.Mos_model.params; w : float; l : float;
               sign : float }  (** +1 NMOS, -1 PMOS *)
  | E_mut of { br1 : int; br2 : int; m : float }
      (** mutual inductance M = k sqrt(L1 L2) between two inductor
          branches *)

type t = {
  circ : Circuit.Netlist.t;
  topo : Circuit.Topology.t;
  n_nodes : int;
  n_branches : int;
  size : int;
  elems : (string * elem) array;  (** device name, compiled element *)
  temp_c : float;
}

exception Compile_error of string

val compile : Circuit.Netlist.t -> t
(** Resolve node indices, branch indices and model cards. Raises
    {!Compile_error} for unknown models, controlling sources, or a circuit
    without ground. *)

val node_index : t -> Circuit.Netlist.node -> int
(** Index of a net; ground is [-1]. Raises {!Compile_error} for unknown
    nets. *)

val branch_index : t -> string -> int
(** Unknown-vector index ([n_nodes + k]) of a voltage-defined device's
    branch current. Raises {!Compile_error} if the device has no branch. *)

val nonlinear : t -> bool
(** True when the circuit contains diodes or transistors. *)

val unknown_name : t -> int -> string
(** User-facing name of unknown-vector index [k]: ["V(net)"] for node
    voltages, ["I(device)"] for branch currents, ["unknown k"] for an
    out-of-range index. Solver singularity diagnostics use this instead of
    dumping a raw matrix index. *)

val structural_pattern : ?gmin:bool -> t -> (int * int) list
(** Sorted, deduplicated (row, col) structural non-zeros of the MNA
    matrix: the union of every stamp footprint the analyses may write
    (linear elements exactly; semiconductor devices as their full terminal
    block). With [gmin] (default [true]) the per-node shunt diagonal the
    solvers always add is included. Lint's structural-singularity
    predictor runs bipartite matching over this pattern. *)

(* Stamp helpers shared by the analyses. [i]/[j] = -1 denotes ground. *)

val stamp_g : Numerics.Rmat.t -> int -> int -> float -> unit
(** Conductance [g] between nodes [i] and [j]. *)

val stamp_rhs : float array -> int -> float -> unit
(** Add a value to RHS row [i] (ignored for ground). *)

val stamp_mat : Numerics.Rmat.t -> int -> int -> float -> unit
(** Raw matrix add at (row, col), skipping ground rows/columns. *)

val stamp_rhs_c : Complex.t array -> int -> Complex.t -> unit
