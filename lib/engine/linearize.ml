type prim = Stamps.prim =
  | L_g of { i : int; j : int; g : float }
  | L_quad of { out_p : int; out_m : int; ctrl_p : int; ctrl_m : int;
                gm : float }
  | L_c of { i : int; j : int; c : float }

let v_at x i = if i < 0 then 0. else x.(i)

(* A BJT's 2x2 junction Jacobian decomposes into four quads that satisfy
   KCL by construction (see DESIGN.md section 6). A quad's current leaves
   node [out_p] (KCL row out_p gains +gm*v_ctrl) and re-enters at [out_m];
   the collector current flows from the collector node through the device
   to the emitter node, so
     A = d ic/d vbe flows c->e controlled by (b,e)
     B = d ic/d vbc flows c->e controlled by (b,c)
     C = d ib/d vbe flows b->e controlled by (b,e)
     D = d ib/d vbc flows b->e controlled by (b,c)
   All coefficients are polarity-independent in node-voltage form. *)
let bjt_prims ~temp_c ~x ~c ~b ~e ~p ~area ~sign =
  let vbe = sign *. (v_at x b -. v_at x e) in
  let vbc = sign *. (v_at x b -. v_at x c) in
  let ss = Devices.Bjt_model.small_signal p ~area ~temp_c ~vbe ~vbc in
  [ L_quad { out_p = c; out_m = e; ctrl_p = b; ctrl_m = e; gm = ss.gm };
    L_quad { out_p = c; out_m = e; ctrl_p = b; ctrl_m = c; gm = ss.gout };
    L_quad { out_p = b; out_m = e; ctrl_p = b; ctrl_m = e; gm = ss.gpi };
    L_quad { out_p = b; out_m = e; ctrl_p = b; ctrl_m = c; gm = ss.gmu };
    L_c { i = b; j = e; c = ss.cpi };
    L_c { i = b; j = c; c = ss.cmu };
    L_c { i = c; j = -1; c = ss.ccs } ]

let mos_prims ~x ~d ~g ~s ~b ~p ~w ~l ~sign =
  let vgs = sign *. (v_at x g -. v_at x s) in
  let vds = sign *. (v_at x d -. v_at x s) in
  let ss = Devices.Mos_model.small_signal p ~w ~l ~vgs ~vds in
  [ L_quad { out_p = d; out_m = s; ctrl_p = g; ctrl_m = s; gm = ss.gm };
    L_g { i = d; j = s; g = ss.gds };
    L_c { i = g; j = s; c = ss.cgs };
    L_c { i = g; j = d; c = ss.cgd };
    L_c { i = b; j = d; c = ss.cbd };
    L_c { i = b; j = s; c = ss.cbs } ]

let device_prims ~temp_c ~x elem =
  match elem with
  | Mna.E_diode { i; j; p; area } ->
    let vd = v_at x i -. v_at x j in
    let ss = Devices.Diode_model.small_signal p ~area ~temp_c ~vd in
    [ L_g { i; j; g = ss.gd }; L_c { i; j; c = ss.cj } ]
  | Mna.E_bjt { c; b; e; p; area; sign } ->
    bjt_prims ~temp_c ~x ~c ~b ~e ~p ~area ~sign
  | Mna.E_mos { d; g; s; b; p; w; l; sign } ->
    mos_prims ~x ~d ~g ~s ~b ~p ~w ~l ~sign
  | _ -> []

let of_op (op : Dcop.t) =
  let temp_c = op.mna.Mna.temp_c in
  Array.to_list op.mna.Mna.elems
  |> List.concat_map (fun (_, e) -> device_prims ~temp_c ~x:op.x e)
