open Numerics

type pole = {
  s : Complex.t;
  freq_hz : float;
  zeta : float;
}

(* Each diagonal block's pencil G + sC as two dense real matrices, from
   one fold of the pencil. *)
let block_matrices ~gmin blocks mna prims =
  let make () =
    Array.init (Blocks.count blocks) (fun b ->
        Rmat.create (Blocks.size blocks b) (Blocks.size blocks b))
  in
  let g = make () and c = make () in
  Blocks.pencil blocks mna prims ~gmin (fun b i j gv cv ->
      Rmat.add_to g.(b) i j gv;
      Rmat.add_to c.(b) i j cv);
  (g, c)

(* The finite poles of one block's pencil. They satisfy G x = -s C x.
   With G invertible (gmin guarantees it), the eigenvalues mu of G^-1 C
   give s = -1/mu; mu ~ 0 corresponds to the pencil's infinite
   eigenvalues (nodes without storage). *)
let block_poles ~smax g c =
  let n = Rmat.rows g in
  let lu = Rmat.lu_factor g in
  let m =
    Rmat.init n n (fun _ _ -> 0.)
  in
  for j = 0 to n - 1 do
    let col = Array.init n (fun i -> Rmat.get c i j) in
    let x = Rmat.lu_solve lu col in
    for i = 0 to n - 1 do
      Rmat.set m i j x.(i)
    done
  done;
  Eigen.eigenvalues m
  |> List.filter_map (fun mu ->
      if Cx.mag mu < 1. /. smax then None
      else begin
        let s = Cx.neg (Cx.inv mu) in
        let wn = Cx.mag s in
        Some { s; freq_hz = wn /. (2. *. Float.pi); zeta = -.s.Complex.re /. wn }
      end)

(* The pencil is block-triangular in its strongly connected blocks, so
   its eigenvalues are those of the diagonal blocks. Solving each block
   on its own also keeps the eigen-solve well posed: on a chain of
   nearly equal stages the whole-system G^-1 C has nearly repeated
   eigenvalues with one-way coupling between them, and the computed
   ones scatter off the true ones (a stable chain read as unstable). *)
let compute ?(gmin = 1e-12) ?(max_hz = 1e12) (op : Dcop.t) =
  let mna = op.Dcop.mna and prims = Linearize.of_op op in
  let g, c = block_matrices ~gmin (Blocks.of_pencil mna prims) mna prims in
  let smax = 2. *. Float.pi *. max_hz in
  List.concat (Array.to_list (Array.map2 (block_poles ~smax) g c))
  |> List.sort (fun a b -> compare (Cx.mag a.s) (Cx.mag b.s))

let of_circuit ?gmin ?max_hz circ =
  compute ?gmin ?max_hz (Dcop.solve (Mna.compile circ))

let complex_pairs poles =
  poles
  |> List.filter (fun p ->
      p.s.Complex.im > 1e-9 *. Cx.mag p.s (* one of each conjugate pair *))
  |> List.sort (fun a b -> compare a.freq_hz b.freq_hz)

let is_stable poles = List.for_all (fun p -> p.s.Complex.re < 0.) poles

let pp ppf p =
  Format.fprintf ppf "s = %a rad/s (f = %sHz, zeta = %.4f)" Cx.pp p.s
    (Engnum.format p.freq_hz) p.zeta
