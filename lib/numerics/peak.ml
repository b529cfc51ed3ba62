type kind = Minimum | Maximum

type t = {
  kind : kind;
  index : int;
  x : float;
  y : float;
  at_edge : bool;
  bracket_ratio : float;
  curvature : float;
}

let refine_parabolic ~x0 ~y0 ~x1 ~y1 ~x2 ~y2 =
  (* Vertex of the Lagrange parabola; derived from setting its derivative
     to zero. Denominator vanishes for collinear points. The collinearity
     guard must be relative: with nearly (but not exactly) collinear
     points the slope difference is pure rounding noise, and dividing by
     it throws the vertex arbitrarily far from the stencil. *)
  let d01 = (y1 -. y0) /. (x1 -. x0) in
  let d12 = (y2 -. y1) /. (x2 -. x1) in
  let slope_scale = Float.max (Float.abs d01) (Float.abs d12) in
  let curvature = (d12 -. d01) /. (x2 -. x0) in
  if Float.abs (d12 -. d01) <= 1e-9 *. slope_scale || curvature = 0. then
    (x1, y1)
  else begin
    let xv = ((x0 +. x1) /. 2.) -. (d01 /. (2. *. curvature)) in
    (* The true extremum lies inside the bracket; a vertex outside it is a
       conditioning artefact, so clamp before evaluating. *)
    let xv = Float.min x2 (Float.max x0 xv) in
    (* Evaluate the parabola (Newton form) at the vertex. *)
    let yv = y0 +. (d01 *. (xv -. x0)) +. (curvature *. (xv -. x0) *. (xv -. x1)) in
    (xv, yv)
  end

(* How well-conditioned the parabolic vertex is: the relative slope
   change across the stencil, the same quantity the collinearity guard
   above compares to 1e-9. Near zero the vertex position is dominated
   by rounding noise in the samples. *)
let refine_quality ~x0 ~y0 ~x1 ~y1 ~x2 ~y2 =
  let d01 = (y1 -. y0) /. (x1 -. x0) in
  let d12 = (y2 -. y1) /. (x2 -. x1) in
  let slope_scale = Float.max (Float.abs d01) (Float.abs d12) in
  if slope_scale = 0. then 0. else Float.abs (d12 -. d01) /. slope_scale

(* Refine an interior extremum at sample [i] using log-x abscissae, which is
   the natural axis for frequency-domain peaks. Also reports the
   conditioning of the fit: bracket width as a frequency ratio, and the
   relative curvature of the stencil. *)
let refined x y i =
  let lx k = log x.(k) in
  let xv, yv =
    refine_parabolic ~x0:(lx (i - 1)) ~y0:y.(i - 1) ~x1:(lx i) ~y1:y.(i)
      ~x2:(lx (i + 1)) ~y2:y.(i + 1)
  in
  let quality =
    refine_quality ~x0:(lx (i - 1)) ~y0:y.(i - 1) ~x1:(lx i) ~y1:y.(i)
      ~x2:(lx (i + 1)) ~y2:y.(i + 1)
  in
  (exp xv, yv, x.(i + 1) /. x.(i - 1), quality)

(* The index of the key saddle on one side of sample [i], walking from
   [k] by [step] (-1 or 1); [s] is the saddle so far, -1 for none, which
   is also the answer when that side has no samples. Walk outward,
   tracking the most opposing level reached, until a more extreme sample
   appears (the saddle closes) or the data ends. "More extreme" is below
   for a minimum and above for a maximum. The walk carries the saddle's
   index, not its value, and compares unboxed floats in place (the
   annotation keeps the array access and the comparisons float ones), so
   it allocates nothing. *)
let rec saddle (y : float array) i is_min step k s =
  if k < 0 || k >= Array.length y then s
  else
    let v = y.(k) in
    if (if is_min then v < y.(i) else v > y.(i)) then s
    else
      saddle y i is_min step (k + step)
        (if s >= 0 && (if is_min then v < y.(s) else v > y.(s)) then s else k)

(* Whether the extremum stands [min_prominence] above/below its key
   saddle, the nearer of the two sides' saddles. A side with no samples
   at all (extremum at the array edge) imposes no barrier. *)
let prominent (y : float array) i kind min_prominence =
  let is_min = kind = Minimum in
  let l = saddle y i is_min (-1) (i - 1) (-1)
  and r = saddle y i is_min 1 (i + 1) (-1) in
  let b =
    if l >= 0 && r >= 0 then
      if (if is_min then y.(l) < y.(r) else y.(l) > y.(r)) then l else r
    else if l >= 0 then l
    else r
  in
  (if b < 0 then Float.infinity else Float.abs (y.(b) -. y.(i)))
  >= min_prominence

let find ?(min_prominence = 0.) ~x ~y () =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Peak.find: x/y length mismatch";
  if n < 3 then []
  else begin
    let out = ref [] in
    (* The prominence filter runs first: most local extrema of a
       sampled curve are ripples it drops, and they need no refinement. *)
    let emit kind i at_edge =
      if prominent y i kind min_prominence then begin
        let xr, yr, bracket_ratio, curvature =
          if at_edge || i = 0 || i = n - 1 then (x.(i), y.(i), 1., 0.)
          else refined x y i
        in
        out :=
          { kind; index = i; x = xr; y = yr; at_edge; bracket_ratio; curvature }
          :: !out
      end
    in
    (* Interior extrema, treating plateaus as a single extremum at their
       centre. *)
    let i = ref 1 in
    while !i < n - 1 do
      let j = ref !i in
      while !j < n - 1 && y.(!j + 1) = y.(!i) do incr j done;
      let left = y.(!i - 1) and here = y.(!i) and right = y.(Int.min (n - 1) (!j + 1)) in
      let centre = (!i + !j) / 2 in
      if here < left && here < right then emit Minimum centre false
      else if here > left && here > right then emit Maximum centre false;
      i := !j + 1
    done;
    (* Edge extrema: monotone approach into the boundary. Derivative-based
       curves often end in a short run of equal samples (one-sided stencils
       copy their neighbour), so compare against the first differing
       sample. *)
    let first_differing start step =
      let rec go k =
        if k < 0 || k >= n then None
        else if y.(k) <> y.(start) then Some y.(k)
        else go (k + step)
      in
      go (start + step)
    in
    (match first_differing 0 1 with
     | Some inner when y.(0) < inner -> emit Minimum 0 true
     | Some inner when y.(0) > inner -> emit Maximum 0 true
     | _ -> ());
    (match first_differing (n - 1) (-1) with
     | Some inner when y.(n - 1) < inner -> emit Minimum (n - 1) true
     | Some inner when y.(n - 1) > inner -> emit Maximum (n - 1) true
     | _ -> ());
    List.sort (fun a b -> compare a.x b.x) !out
  end

let global_minimum ~x ~y =
  let i = Vec.argmin y in
  let n = Array.length y in
  let at_edge = i = 0 || i = n - 1 in
  let xr, yr, bracket_ratio, curvature =
    if at_edge then (x.(i), y.(i), 1., 0.) else refined x y i
  in
  { kind = Minimum; index = i; x = xr; y = yr; at_edge; bracket_ratio;
    curvature }
