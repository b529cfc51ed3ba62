open Numerics

type pole = {
  s : Complex.t;
  freq_hz : float;
  zeta : float;
}

(* The pencil G + sC as two dense real matrices. *)
let system_matrices ?(gmin = 1e-12) (op : Dcop.t) =
  let mna = op.Dcop.mna in
  let size = mna.Mna.size in
  let g = Rmat.create size size and c = Rmat.create size size in
  Stamps.pencil mna (Linearize.of_op op) ~gmin (fun i j gv cv ->
      Rmat.add_to g i j gv;
      Rmat.add_to c i j cv);
  (g, c)

let compute ?gmin ?(max_hz = 1e12) op =
  let g, c = system_matrices ?gmin op in
  let n = Rmat.rows g in
  (* Poles satisfy G x = -s C x. With G invertible (gmin guarantees it),
     the eigenvalues mu of G^-1 C give s = -1/mu; mu ~ 0 corresponds to the
     pencil's infinite eigenvalues (nodes without storage). *)
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
  let mus = Eigen.eigenvalues m in
  let smax = 2. *. Float.pi *. max_hz in
  mus
  |> List.filter_map (fun mu ->
      if Cx.mag mu < 1. /. smax then None
      else begin
        let s = Cx.neg (Cx.inv mu) in
        let wn = Cx.mag s in
        Some { s; freq_hz = wn /. (2. *. Float.pi); zeta = -.s.Complex.re /. wn }
      end)
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
