open Numerics

type contribution = {
  device : string;
  kind : string;
  psd : float array;
}

type result = {
  freqs : float array;
  total : float array;
  contributions : contribution list;
}

(* A current-noise generator between two node indices (the -1 ground index
   is handled by the excitation builder), with a possibly frequency-
   dependent power spectral density. *)
type source = {
  src_device : string;
  src_kind : string;
  from_node : int;  (* current flows out of this node... *)
  to_node : int;    (* ...and into this one (direction is irrelevant for
                       noise power, but keep the Isource convention) *)
  density : float -> float;  (* A^2/Hz at a frequency *)
}

let boltzmann = Devices.Const.boltzmann
let qe = Devices.Const.electron_charge

let v_at x i = if i < 0 then 0. else x.(i)

(* Enumerate the operating-point noise generators of a compiled circuit. *)
let sources (op : Dcop.t) =
  let mna = op.Dcop.mna in
  let temp_k = Devices.Const.kelvin_of_celsius mna.Mna.temp_c in
  let x = op.Dcop.x in
  let four_kt = 4. *. boltzmann *. temp_k in
  (* Optional 1/f noise: S = kf * |I|^af / f on the device's main
     junction. *)
  let flicker name ~kf ~af ~current ~from_node ~to_node =
    if kf = 0. || current = 0. then []
    else
      [ { src_device = name; src_kind = "flicker"; from_node; to_node;
          density =
            (fun f -> kf *. Float.pow (Float.abs current) af /. f) } ]
  in
  Array.to_list mna.Mna.elems
  |> List.concat_map (fun (name, e) ->
      match e with
      | Mna.E_res { i; j; g } ->
        [ { src_device = name; src_kind = "thermal"; from_node = i;
            to_node = j; density = (fun _ -> four_kt *. g) } ]
      | Mna.E_diode { i; j; p; area } ->
        let vd = v_at x i -. v_at x j in
        let d =
          Devices.Diode_model.dc p ~area ~temp_c:mna.Mna.temp_c ~vd
            ~vd_old:vd
        in
        { src_device = name; src_kind = "shot"; from_node = i; to_node = j;
          density = (fun _ -> 2. *. qe *. Float.abs d.id) }
        :: flicker name ~kf:p.Devices.Diode_model.kf
             ~af:p.Devices.Diode_model.af ~current:d.id ~from_node:i
             ~to_node:j
      | Mna.E_bjt { c; b; e = ne; p; area; sign } ->
        let vbe = sign *. (v_at x b -. v_at x ne) in
        let vbc = sign *. (v_at x b -. v_at x c) in
        let d =
          Devices.Bjt_model.dc p ~area ~temp_c:mna.Mna.temp_c ~vbe ~vbc
            ~vbe_old:vbe ~vbc_old:vbc
        in
        { src_device = name; src_kind = "shot-ic"; from_node = c;
          to_node = ne; density = (fun _ -> 2. *. qe *. Float.abs d.ic) }
        :: { src_device = name; src_kind = "shot-ib"; from_node = b;
             to_node = ne; density = (fun _ -> 2. *. qe *. Float.abs d.ib) }
        :: flicker name ~kf:p.Devices.Bjt_model.kf
             ~af:p.Devices.Bjt_model.af ~current:d.ib ~from_node:b
             ~to_node:ne
      | Mna.E_mos { d; s; g; p; w; l; sign; _ } ->
        let vgs = sign *. (v_at x g -. v_at x s) in
        let vds = sign *. (v_at x d -. v_at x s) in
        let ss = Devices.Mos_model.small_signal p ~w ~l ~vgs ~vds in
        let dc = Devices.Mos_model.dc p ~w ~l ~vgs ~vds in
        { src_device = name; src_kind = "channel"; from_node = d;
          to_node = s;
          density = (fun _ -> four_kt *. (2. /. 3.) *. Float.abs ss.gm) }
        :: flicker name ~kf:p.Devices.Mos_model.kf
             ~af:p.Devices.Mos_model.af ~current:dc.ids ~from_node:d
             ~to_node:s
      | _ -> [])

let run_compiled ?(gmin = 1e-12) ~sweep ~output ~op mna =
  let out_idx = Mna.node_index mna output in
  if out_idx < 0 then invalid_arg "Noise.run: output cannot be ground";
  let srcs = sources op in
  let freqs = Sweep.points sweep in
  let nf = Array.length freqs in
  let per_source = List.map (fun s -> (s, Array.make nf 0.)) srcs in
  let total = Array.make nf 0. in
  let size = mna.Mna.size in
  let prims = Linearize.of_op op in
  Array.iteri
    (fun fk f ->
      let omega = 2. *. Float.pi *. f in
      (* Adjoint method: y = A^-T e_out gives the transfer from a unit
         current injected between any node pair as (y_j - y_i). *)
      let at = Cmat.transpose (Ac.matrix_at mna prims ~gmin ~omega) in
      let lu = Cmat.lu_factor at in
      let e_out = Array.make size Cx.zero in
      e_out.(out_idx) <- Cx.one;
      let y = Cmat.lu_solve lu e_out in
      let y_at i = if i < 0 then Cx.zero else y.(i) in
      List.iter
        (fun (s, acc) ->
          let h = Cx.( -: ) (y_at s.to_node) (y_at s.from_node) in
          let p = Cx.mag2 h *. s.density f in
          acc.(fk) <- p;
          total.(fk) <- total.(fk) +. p)
        per_source)
    freqs;
  { freqs;
    total;
    contributions =
      List.map
        (fun (s, acc) ->
          { device = s.src_device; kind = s.src_kind; psd = acc })
        per_source }

let run ?gmin ~sweep ~output circ =
  let mna = Mna.compile circ in
  let op = Dcop.solve mna in
  run_compiled ?gmin ~sweep ~output ~op mna

let total_rms r =
  let acc = ref 0. in
  for k = 0 to Array.length r.freqs - 2 do
    let df = r.freqs.(k + 1) -. r.freqs.(k) in
    acc := !acc +. (0.5 *. (r.total.(k) +. r.total.(k + 1)) *. df)
  done;
  sqrt !acc

let nearest_index freqs f =
  let best = ref 0 in
  Array.iteri
    (fun k fk ->
      if Float.abs (log (fk /. f)) < Float.abs (log (freqs.(!best) /. f))
      then best := k)
    freqs;
  !best

let spot_contributions r ~at_hz =
  let k = nearest_index r.freqs at_hz in
  r.contributions
  |> List.map (fun c -> (c.device, c.kind, c.psd.(k)))
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let pp_summary ~at_hz ppf r =
  let k = nearest_index r.freqs at_hz in
  Format.fprintf ppf "output noise at %sHz: %sV/rtHz (total rms %sV)@."
    (Engnum.format r.freqs.(k))
    (Engnum.format (sqrt r.total.(k)))
    (Engnum.format (total_rms r));
  List.iter
    (fun (dev, kind, p) ->
      if p > 1e-3 *. r.total.(k) then
        Format.fprintf ppf "  %-12s %-8s %sV/rtHz (%4.1f%%)@." dev kind
          (Engnum.format (sqrt p))
          (100. *. p /. r.total.(k)))
    (spot_contributions r ~at_hz)
