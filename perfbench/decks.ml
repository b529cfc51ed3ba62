(* The decks the benchmark sends to acstab, generated from the run's seed.

   cli_allnodes and serve_warm analyse the paper's op-amp buffer (the
   Table 2 all-nodes run). Its answers are pinned by
   golden/opamp_allnodes.json, so the seed only adds a comment line: it
   changes the deck's fingerprint, never its numbers.

   serve_campaign analyses distinct variants of a [stages]-stage
   [Workloads.Synth.amp_array] (44 unknowns, 6 feedback loops), each
   resistor and capacitor scaled by its own seeded factor within
   +-[spread]. A wider spread makes request costs uneven (at +-10% the
   p90 latency was about three times the p50), which a closed-loop
   latency benchmark cannot tell apart from noise. Longer chains are
   left out because acstab answers some of their variants wrongly: from
   8 stages on, rounding in the AC solve near the stages' shared
   resonance moves the reported peak beyond the closed form's tolerance
   on a few variants in a thousand (DESIGN.md has the cases). *)

let opamp_name = "opamp_2mhz_buffer.sp"

let opamp ~seed =
  let text = Circuit.Netlist.to_spice (Workloads.Opamp_2mhz.buffer ()) in
  let comment = Printf.sprintf "* perfbench seed %d\n" seed in
  match String.index_opt text '\n' with
  | Some i ->
    String.sub text 0 (i + 1) ^ comment
    ^ String.sub text (i + 1) (String.length text - i - 1)
  | None -> comment ^ text

let stages = 6

(* The net the campaign probes: the closed-loop output of the last
   stage, "fb_5". *)
let campaign_node = Workloads.Synth.amp_stage_out (stages - 1)

let spread = 0.02

let variant_name k = Printf.sprintf "amp_array_%d_v%d.sp" stages k

(* Variant [k] of the campaign deck; the same (seed, k) always gives the
   same text. *)
let variant ~seed k =
  let st = Random.State.make [| seed; k |] in
  let scale v = v *. (1. +. (spread *. ((2. *. Random.State.float st 1.) -. 1.))) in
  Workloads.Synth.amp_array ~stages ()
  |> Circuit.Netlist.map_devices (function
       | Circuit.Netlist.Resistor r -> Circuit.Netlist.Resistor { r with r = scale r.r }
       | Circuit.Netlist.Capacitor c -> Circuit.Netlist.Capacitor { c with c = scale c.c }
       | d -> d)
  |> Circuit.Netlist.to_spice

(* The closed-loop poles of one amp_array stage: a gain block A_v
   driving two RC poles with unity feedback, so
   w_n^2 = (1 + A_v) / (tau1 tau2) and
   zeta = (tau1 + tau2) / (2 sqrt ((1 + A_v) tau1 tau2)),
   tau1 = R1 C1, tau2 = R2 C2. Read from the deck text as the program
   parses it, so the expectation uses the values acstab saw. *)
let closed_form deck_text =
  let circ = Circuit.Parser.parse_string ~name:"variant" deck_text in
  let s = stages - 1 in
  let value name =
    match Circuit.Netlist.find_device circ (Printf.sprintf "%s_%d" name s) with
    | Some (Circuit.Netlist.Resistor { r; _ }) -> r
    | Some (Circuit.Netlist.Capacitor { c; _ }) -> c
    | Some (Circuit.Netlist.Vcvs { gain; _ }) -> gain
    | _ -> invalid_arg (Printf.sprintf "Decks.closed_form: no %s_%d" name s)
  in
  let av = value "EAMP" in
  let tau1 = value "R1" *. value "C1" and tau2 = value "R2" *. value "C2" in
  let wn = sqrt ((1. +. av) /. (tau1 *. tau2)) in
  (wn /. (2. *. Float.pi),
   (tau1 +. tau2) /. (2. *. sqrt ((1. +. av) *. tau1 *. tau2)))
