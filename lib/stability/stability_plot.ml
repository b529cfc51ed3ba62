open Numerics

type t = {
  freqs : float array;
  mag : float array;
  p : float array;
  clamped : int;
}

let of_magnitude ~freqs ~mag =
  let p, clamped = Deriv.stability_function_clamped ~freq:freqs ~mag in
  { freqs; mag; p; clamped }

let of_response w =
  of_magnitude ~freqs:w.Waveform.Freq.freqs ~mag:(Waveform.Freq.mag w)

let degraded t = t.clamped > 0

let value_at_opt t f = Interp.semilogx_opt ~x:t.freqs ~y:t.p f

let value_at t f =
  match value_at_opt t f with
  | Some v -> v
  | None -> invalid_arg "Stability_plot.value_at: frequency outside the sweep"

let global_minimum t =
  let pk = Peak.global_minimum ~x:t.freqs ~y:t.p in
  (pk.Peak.x, pk.Peak.y)

let pp ppf t =
  Format.fprintf ppf "%14s %14s %12s@." "freq [Hz]" "|T|" "P";
  Array.iteri
    (fun k f ->
      Format.fprintf ppf "%14s %14.6g %12.4f@." (Engnum.format f) t.mag.(k)
        t.p.(k))
    t.freqs;
  if t.clamped > 0 then
    Format.fprintf ppf "(degraded: %d magnitude sample(s) clamped)@." t.clamped
