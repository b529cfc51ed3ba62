(** Element stamping, shared by every analysis.

    Two families. [stamp_static], [stamp_nonlinear] and [stamp_gmin]
    write the real-valued MNA system of the DC Newton and transient
    iterations: capacitors and inductors are handled by the caller
    (open/short at DC, companion models in transient), and
    independent-source values come from a caller-provided valuation so
    DC can scale sources (source stepping) and transient can evaluate
    waveforms at time t.

    [pencil] is the small-signal system G + sC linearised at an
    operating point, the one definition every AC-side solver folds:
    the dense oracle, the compiled plan, the pole analysis and the DC
    solver's sparse path for linear circuits (at s = 0 the pencil is
    the DC matrix). *)

open Mna

(* Small-signal primitives of a junction device at an operating point,
   built by [Linearize] (which re-exports this type) and stamped by
   [pencil]. *)
type prim =
  | L_g of { i : int; j : int; g : float }
  | L_quad of { out_p : int; out_m : int; ctrl_p : int; ctrl_m : int;
                gm : float }
  | L_c of { i : int; j : int; c : float }

(* Junction-limiting state: two slots per element (vbe/vbc for BJTs, vd for
   diodes). Initialised near a forward-biased junction so the first Newton
   iteration starts the exponentials in a sane region (what SPICE does with
   vcrit). *)
let make_limit_state mna =
  let st = Array.make (2 * Array.length mna.elems) 0. in
  Array.iteri
    (fun k (_, e) ->
      match e with
      | E_diode _ -> st.(2 * k) <- 0.65
      | E_bjt _ ->
        st.(2 * k) <- 0.65;
        st.((2 * k) + 1) <- 0.
      | _ -> ())
    mna.elems;
  st

let v_at x i = if i < 0 then 0. else x.(i)

(* Linear static elements: R, independent sources, controlled sources.
   [src_value] maps a source spec to its present value. *)
let stamp_static mna ~(src_value : Circuit.Netlist.source_spec -> float) a b =
  Array.iter
    (fun (_, e) ->
      match e with
      | E_res { i; j; g } -> stamp_g a i j g
      | E_cap _ | E_ind _ -> ()
      | E_vsrc { i; j; br; spec } ->
        stamp_mat a i br 1.;
        stamp_mat a j br (-1.);
        stamp_mat a br i 1.;
        stamp_mat a br j (-1.);
        stamp_rhs b br (src_value spec)
      | E_isrc { i; j; spec } ->
        let v = src_value spec in
        stamp_rhs b i (-.v);
        stamp_rhs b j v
      | E_vcvs { i; j; ci; cj; br; gain } ->
        stamp_mat a i br 1.;
        stamp_mat a j br (-1.);
        stamp_mat a br i 1.;
        stamp_mat a br j (-1.);
        stamp_mat a br ci (-.gain);
        stamp_mat a br cj gain
      | E_vccs { i; j; ci; cj; gm } ->
        stamp_mat a i ci gm;
        stamp_mat a i cj (-.gm);
        stamp_mat a j ci (-.gm);
        stamp_mat a j cj gm
      | E_cccs { i; j; cbr; gain } ->
        stamp_mat a i cbr gain;
        stamp_mat a j cbr (-.gain)
      | E_ccvs { i; j; cbr; br; rm } ->
        stamp_mat a i br 1.;
        stamp_mat a j br (-1.);
        stamp_mat a br i 1.;
        stamp_mat a br j (-1.);
        stamp_mat a br cbr (-.rm)
      | E_mut _ (* reactive only: no DC stamp *)
      | E_diode _ | E_bjt _ | E_mos _ -> ())
    mna.elems

(* A nonlinear two-junction device with polarity [sign] (+1 NPN/NMOS,
   -1 PNP/PMOS) has terminal current I_node = sign * I(u1, u2) with
   junction voltages u = sign * (V_p - V_m). Linearising around the
   evaluation point u0,
     I_node ~ sign*I(u0) + sign*da*(u1 - u1_0) + sign*db*(u2 - u2_0)
   and since u1 = sign*(V_p1 - V_m1) the matrix coefficient of V_p1 is
   sign^2*da = da: the Jacobian stamps are polarity-independent while the
   RHS constant carries the sign. [da]/[db] and [u1]/[u2] are the
   reference-polarity derivatives and junction voltages. *)
let stamp_terminal a b ~row ~da ~db ~value ~u1 ~u2
    ~(j1 : int * int) ~(j2 : int * int) ~sign =
  let p1, m1 = j1 and p2, m2 = j2 in
  stamp_mat a row p1 da;
  stamp_mat a row m1 (-.da);
  stamp_mat a row p2 db;
  stamp_mat a row m2 (-.db);
  let const = sign *. (value -. (da *. u1) -. (db *. u2)) in
  stamp_rhs b row (-.const)

(* Nonlinear devices linearised around the (limited) junction voltages.
   Returns true when any junction step was limited, which defers
   convergence. [limst] is updated in place with the voltages used. *)
let stamp_nonlinear mna ~x ~limst a b =
  let temp_c = mna.temp_c in
  let limited = ref false in
  Array.iteri
    (fun k (_, e) ->
      match e with
      | E_res _ | E_cap _ | E_ind _ | E_vsrc _ | E_isrc _ | E_vcvs _
      | E_vccs _ | E_cccs _ | E_ccvs _ | E_mut _ -> ()
      | E_diode { i; j; p; area } ->
        let vd = v_at x i -. v_at x j in
        let r =
          Devices.Diode_model.dc p ~area ~temp_c ~vd ~vd_old:limst.(2 * k)
        in
        limst.(2 * k) <- r.vd_used;
        if r.limited then limited := true;
        stamp_g a i j r.gd;
        let const = r.id -. (r.gd *. r.vd_used) in
        stamp_rhs b i (-.const);
        stamp_rhs b j const
      | E_bjt { c; b = nb; e = ne; p; area; sign } ->
        let vbe = sign *. (v_at x nb -. v_at x ne) in
        let vbc = sign *. (v_at x nb -. v_at x c) in
        let r =
          Devices.Bjt_model.dc p ~area ~temp_c ~vbe ~vbc
            ~vbe_old:limst.(2 * k) ~vbc_old:limst.((2 * k) + 1)
        in
        limst.(2 * k) <- r.vbe_used;
        limst.((2 * k) + 1) <- r.vbc_used;
        if r.limited then limited := true;
        (* Junctions in node voltages: vbe = sign (Vb - Ve),
           vbc = sign (Vb - Vc). Terminal currents (into the terminal):
           collector sign*ic, base sign*ib, emitter -sign*(ic+ib). *)
        let j1 = (nb, ne) and j2 = (nb, c) in
        let stamp_t ~row ~value ~da ~db =
          stamp_terminal a b ~row ~da ~db ~value ~u1:r.vbe_used
            ~u2:r.vbc_used ~j1 ~j2 ~sign
        in
        stamp_t ~row:c ~value:r.ic ~da:r.d_ic_dvbe ~db:r.d_ic_dvbc;
        stamp_t ~row:nb ~value:r.ib ~da:r.d_ib_dvbe ~db:r.d_ib_dvbc;
        stamp_t ~row:ne
          ~value:(-.(r.ic +. r.ib))
          ~da:(-.(r.d_ic_dvbe +. r.d_ib_dvbe))
          ~db:(-.(r.d_ic_dvbc +. r.d_ib_dvbc))
      | E_mos { d; g; s; p; w; l; sign; _ } ->
        let vgs = sign *. (v_at x g -. v_at x s) in
        let vds = sign *. (v_at x d -. v_at x s) in
        let r = Devices.Mos_model.dc p ~w ~l ~vgs ~vds in
        (* Junctions: vgs = sign (Vg - Vs), vds = sign (Vd - Vs);
           drain current into drain = sign*ids, source = -sign*ids. *)
        let j1 = (g, s) and j2 = (d, s) in
        let stamp_t ~row ~value ~da ~db =
          stamp_terminal a b ~row ~da ~db ~value ~u1:vgs ~u2:vds ~j1 ~j2
            ~sign
        in
        stamp_t ~row:d ~value:r.ids ~da:r.d_ids_dvgs ~db:r.d_ids_dvds;
        stamp_t ~row:s
          ~value:(-.r.ids)
          ~da:(-.r.d_ids_dvgs)
          ~db:(-.r.d_ids_dvds))
    mna.elems;
  !limited

let stamp_gmin mna ~gmin a =
  for i = 0 to mna.n_nodes - 1 do
    Numerics.Rmat.add_to a i i gmin
  done

(* The pencil G + sC: [f i j g c] once per stamp entry, g into G(i, j)
   and c into C(i, j), in a fixed order -- [mna.elems] in order, then the
   linearised [prims], then gmin on the node diagonals -- with ground
   rows and columns dropped. Every entry carries both parts, so a caller
   that keeps only one of them also sees the +-0.0 a resistor adds to C
   or a capacitor to G. An accumulator that starts at +0.0 is never
   -0.0, and adding +-0.0 leaves its bits alone, so such a caller sums
   exactly what a G-only or C-only stamp would. *)
let pencil mna prims ~gmin f =
  let add i j g c = if i >= 0 && j >= 0 then f i j g c in
  let quad i j g c =
    add i i g c;
    add j j g c;
    add i j (-.g) (-.c);
    add j i (-.g) (-.c)
  in
  let incidence i j br =
    add i br 1. 0.;
    add j br (-1.) 0.;
    add br i 1. 0.;
    add br j (-1.) 0.
  in
  (* Current gm * (v cp - v cm) out of node p, back in at node m. *)
  let vccs p m cp cm gm =
    add p cp gm 0.;
    add p cm (-.gm) 0.;
    add m cp (-.gm) 0.;
    add m cm gm 0.
  in
  Array.iter
    (fun (_, e) ->
      match e with
      | E_res { i; j; g } -> quad i j g 0.
      | E_cap { i; j; c; _ } -> quad i j 0. c
      | E_ind { i; j; l; br; _ } ->
        incidence i j br;
        add br br 0. (-.l)
      | E_vsrc { i; j; br; _ } -> incidence i j br
      | E_vcvs { i; j; ci; cj; br; gain } ->
        incidence i j br;
        add br ci (-.gain) 0.;
        add br cj gain 0.
      | E_vccs { i; j; ci; cj; gm } -> vccs i j ci cj gm
      | E_cccs { i; j; cbr; gain } ->
        add i cbr gain 0.;
        add j cbr (-.gain) 0.
      | E_ccvs { i; j; cbr; br; rm } ->
        incidence i j br;
        add br cbr (-.rm) 0.
      | E_mut { br1; br2; m } ->
        (* v1 includes sM i2 and v2 includes sM i1. *)
        add br1 br2 0. (-.m);
        add br2 br1 0. (-.m)
      | E_isrc _ (* excitation only *)
      | E_diode _ | E_bjt _ | E_mos _ (* through [prims] *) -> ())
    mna.elems;
  List.iter
    (function
      | L_g { i; j; g } -> quad i j g 0.
      | L_c { i; j; c } -> quad i j 0. c
      | L_quad { out_p; out_m; ctrl_p; ctrl_m; gm } ->
        vccs out_p out_m ctrl_p ctrl_m gm)
    prims;
  for i = 0 to mna.n_nodes - 1 do
    f i i gmin 0.
  done
