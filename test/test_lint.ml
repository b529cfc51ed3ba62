(* Lint rule engine: rule catalogue over the shipped circuits and broken
   variants, Hopcroft–Karp matching, source-line tracking, JSON output,
   and the lint <-> dense-LU singularity agreement property. *)

open Circuit

let parse s = Parser.parse_string s

let ids findings =
  List.sort_uniq compare
    (List.map (fun (f : Lint.Rule.finding) -> f.rule_id) findings)

let error_ids findings = ids (Lint.Runner.errors findings)

let has_id id findings =
  List.exists (fun (f : Lint.Rule.finding) -> f.rule_id = id) findings

let check_ids msg expected findings =
  Alcotest.(check (list string)) msg expected (ids findings)

(* ---------- shipped circuits lint clean ---------- *)

let shipped =
  [ "double_tuned.sp"; "emitter_follower.sp"; "rlc_tank.sp";
    "sallen_key.sp"; "two_pole_loop.sp"; "wilson_mirror.sp" ]

let test_shipped_clean () =
  List.iter
    (fun name ->
      let circ = Parser.parse_file (Filename.concat "../circuits" name) in
      let findings = Lint.Runner.run circ in
      Alcotest.(check (list string))
        (name ^ " lints clean") [] (ids findings))
    shipped

(* ---------- broken variants: exact rule IDs ---------- *)

let test_floating_net () =
  let findings =
    Lint.Runner.run
      (parse "floating\nV1 a 0 DC 1\nR1 a 0 1k\nR2 x y 1k\n.end\n")
  in
  Alcotest.(check bool) "floating-net fires" true
    (has_id "floating-net" findings);
  let f =
    List.find
      (fun (f : Lint.Rule.finding) -> f.rule_id = "floating-net")
      findings
  in
  Alcotest.(check (list string)) "names both nets" [ "x"; "y" ]
    (List.sort compare f.nets)

let test_vsource_loop () =
  let findings =
    Lint.Runner.run (parse "vloop\nV1 a 0 DC 1\nV2 a 0 DC 1\nR1 a 0 1k\n")
  in
  check_ids "loop of two V sources"
    [ "singular-structure"; "vsource-loop" ]
    findings;
  let f =
    List.find
      (fun (f : Lint.Rule.finding) -> f.rule_id = "vsource-loop")
      findings
  in
  Alcotest.(check bool) "finding cites the source line" true
    (f.line = Some 3);
  Alcotest.(check bool) "loop members named" true
    (List.mem "V1" f.devices && List.mem "V2" f.devices)

let test_vl_loop () =
  (* An inductor is voltage-defined too: L parallel to V is a DC loop. *)
  let findings =
    Lint.Runner.run (parse "vl\nV1 a 0 DC 1\nL1 a 0 1u\nR1 a 0 1k\n")
  in
  Alcotest.(check bool) "V||L flagged" true
    (has_id "vsource-loop" findings)

let test_isource_cutset () =
  let findings =
    Lint.Runner.run
      (parse "cut\nI1 0 a DC 1m\nC1 a 0 1p\nR1 b 0 1k\nV1 b 0 DC 1\n")
  in
  Alcotest.(check bool) "isource-cutset fires" true
    (has_id "isource-cutset" findings);
  let f =
    List.find
      (fun (f : Lint.Rule.finding) -> f.rule_id = "isource-cutset")
      findings
  in
  Alcotest.(check bool) "names the isolated net" true (List.mem "a" f.nets);
  Alcotest.(check bool) "names the forcing source" true
    (List.mem "I1" f.devices)

let test_cap_island_is_warning () =
  (* The same island without a current source is only the no-dc-path
     warning (gmin rescues it numerically). *)
  let findings =
    Lint.Runner.run
      (parse "island\nV1 b 0 DC 1\nR1 b 0 1k\nC1 b a 1p\nC2 a 0 1p\n")
  in
  Alcotest.(check bool) "no-dc-path fires" true
    (has_id "no-dc-path" findings);
  Alcotest.(check (list string)) "but nothing is an error" []
    (error_ids findings)

let test_shorted () =
  let findings =
    Lint.Runner.run (parse "short\nV1 a 0 DC 1\nR1 a 0 1k\nL1 a a 1u\n")
  in
  Alcotest.(check bool) "shorted-element fires" true
    (has_id "shorted-element" findings);
  let f =
    List.find
      (fun (f : Lint.Rule.finding) -> f.rule_id = "shorted-element")
      findings
  in
  Alcotest.(check bool) "shorted inductor is an error" true
    (f.severity = Lint.Rule.Error)

let test_duplicate_via_api () =
  (* The parser rejects duplicates up front; API-level rewrites can still
     produce them, which is exactly what the rule is for. *)
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "a" "0" 1e3 in
  let c = Netlist.resistor c "R2" "a" "0" 2e3 in
  let c = Netlist.vsource c "V1" "a" "0" (Netlist.dc_source 1.) in
  let renamed =
    Netlist.map_devices
      (function
        | Netlist.Resistor r -> Netlist.Resistor { r with name = "R1" }
        | d -> d)
      c
  in
  let findings = Lint.Runner.run renamed in
  Alcotest.(check bool) "duplicate-name fires" true
    (has_id "duplicate-name" findings)

let test_values () =
  let findings =
    Lint.Runner.run
      (parse "vals\nV1 a 0 DC 1\nR1 a 0 0\nC1 a 0 10\nR2 a 0 1k\n")
  in
  Alcotest.(check bool) "zero-value fires on R1" true
    (has_id "zero-value" findings);
  Alcotest.(check bool) "suspicious-value fires on the 10 F cap" true
    (has_id "suspicious-value" findings);
  (* Milliohm-range parts are deliberate in loop-closure fixtures; they
     must not be flagged. *)
  let ok =
    Lint.Runner.run (parse "small\nV1 a 0 DC 1\nR1 a b 1m\nR2 b 0 1k\n")
  in
  Alcotest.(check bool) "1 mOhm not flagged" false
    (has_id "suspicious-value" ok)

let test_bad_mutual () =
  let findings =
    Lint.Runner.run
      (parse
         "mut\nV1 a 0 DC 1\nR1 a 0 1k\nL1 a 0 1u\nK1 L1 L9 0.5\n")
  in
  Alcotest.(check bool) "bad-mutual fires on missing inductor" true
    (has_id "bad-mutual" findings);
  (* The parser rejects |k| >= 1 outright, so an over-coupled K element
     can only reach lint through the building API. *)
  let c = Netlist.empty () in
  let c = Netlist.vsource c "V1" "a" "0" (Netlist.dc_source 1.) in
  let c = Netlist.resistor c "R1" "a" "0" 1e3 in
  let c = Netlist.resistor c "R2" "b" "0" 1e3 in
  let c = Netlist.inductor c "L1" "a" "0" 1e-6 in
  let c = Netlist.inductor c "L2" "b" "0" 1e-6 in
  let c = Netlist.mutual c "K1" ~l1:"L1" ~l2:"L2" ~k:1.5 in
  Alcotest.(check bool) "bad-mutual fires on |k|>=1" true
    (has_id "bad-mutual" (Lint.Runner.run c))

let test_unknown_refs () =
  let m =
    Lint.Runner.run (parse "dmod\nV1 a 0 DC 1\nD1 a 0 nosuch\nR1 a 0 1k\n")
  in
  Alcotest.(check bool) "unknown-model fires" true (has_id "unknown-model" m);
  let f =
    Lint.Runner.run
      (parse "fctl\nV1 a 0 DC 1\nR1 a 0 1k\nF1 a 0 V9 2\n")
  in
  Alcotest.(check bool) "unknown-control fires" true
    (has_id "unknown-control" f);
  let g =
    Lint.Runner.run
      (parse "gctl\nV1 a 0 DC 1\nR1 a 0 1k\nG1 a 0 sens 0 1m\n")
  in
  Alcotest.(check bool) "unconnected-control fires" true
    (has_id "unconnected-control" g)

let test_no_ground () =
  let findings = Lint.Runner.run (parse "ng\nV1 a b DC 1\nR1 a b 1k\n") in
  Alcotest.(check bool) "no-ground fires" true (has_id "no-ground" findings)

let test_disable () =
  let circ = parse "vloop\nV1 a 0 DC 1\nV2 a 0 DC 1\nR1 a 0 1k\n" in
  let findings =
    Lint.Runner.run
      ~config:{ Lint.Runner.disabled = [ "vsource-loop" ] }
      circ
  in
  Alcotest.(check bool) "disabled rule is silent" false
    (has_id "vsource-loop" findings);
  Alcotest.(check bool) "other rules still run" true
    (has_id "singular-structure" findings)

let test_rules_find () =
  Alcotest.(check bool) "find known" true (Lint.Rules.find "no-ground" <> None);
  Alcotest.(check bool) "find unknown" true (Lint.Rules.find "bogus" = None);
  (* IDs are unique across the catalogue. *)
  let all_ids = List.map (fun (r : Lint.Rule.t) -> r.id) Lint.Rules.all in
  Alcotest.(check int) "no duplicate rule IDs"
    (List.length all_ids)
    (List.length (List.sort_uniq compare all_ids))

(* ---------- Hopcroft–Karp ---------- *)

let test_matching_perfect () =
  let adj = [| [ 0; 1 ]; [ 1; 2 ]; [ 2 ] |] in
  let m = Lint.Matching.max_matching ~rows:3 ~cols:3 ~adj in
  Alcotest.(check int) "perfect" 3 m.Lint.Matching.size;
  Alcotest.(check (list int)) "no unmatched rows" []
    (Lint.Matching.unmatched_rows m)

let test_matching_deficient () =
  (* Rows 1 and 2 compete for column 1: deficiency 1. *)
  let adj = [| [ 0 ]; [ 1 ]; [ 1 ] |] in
  let m = Lint.Matching.max_matching ~rows:3 ~cols:3 ~adj in
  Alcotest.(check int) "deficient" 2 m.Lint.Matching.size;
  Alcotest.(check int) "one unmatched row" 1
    (List.length (Lint.Matching.unmatched_rows m));
  Alcotest.(check (list int)) "column 2 uncovered" [ 2 ]
    (Lint.Matching.unmatched_cols m)

let test_matching_wide () =
  (* A bigger instance with a known answer: bipartite crown graph minus
     one side's hub still has a perfect matching. *)
  let n = 50 in
  let adj =
    Array.init n (fun r -> [ r; (r + 1) mod n ])
  in
  let m = Lint.Matching.max_matching ~rows:n ~cols:n ~adj in
  Alcotest.(check int) "cycle cover" n m.Lint.Matching.size

(* ---------- source-line tracking ---------- *)

let test_lines_recorded () =
  let circ = parse "lines\nV1 a 0 DC 1\nR1 a b 1k\n\nR2 b 0 2k\n" in
  Alcotest.(check (option int)) "V1 line" (Some 2)
    (Netlist.device_line circ "V1");
  Alcotest.(check (option int)) "R2 line (blank skipped)" (Some 5)
    (Netlist.device_line circ "r2");
  Alcotest.(check (option int)) "absent device" None
    (Netlist.device_line circ "R9");
  (* API-built devices carry no line. *)
  let c = Netlist.resistor (Netlist.empty ()) "R1" "a" "0" 1. in
  Alcotest.(check (option int)) "built device" None
    (Netlist.device_line c "R1")

(* Edits keep the line of every device they leave in place; a device
   an edit adds has none. *)
let test_lines_survive_edits () =
  let circ =
    parse "edits\nV1 a 0 DC 1 AC 1\nR1 a b 1k\nC1 b 0 1n\nR2 b 0 2k\n"
  in
  let check what c expected =
    List.iter
      (fun (name, line) ->
        Alcotest.(check (option int)) (what ^ ": " ^ name) line
          (Netlist.device_line c name))
      expected
  in
  let all = [ ("V1", Some 2); ("R1", Some 3); ("C1", Some 4); ("R2", Some 5) ] in
  check "parsed" circ all;
  let r1 =
    Netlist.Resistor { name = "r1"; n1 = "a"; n2 = "b"; r = 2e3; tc1 = 0.;
                       tc2 = 0. }
  in
  check "replace_device" (Netlist.replace_device circ r1) all;
  let removed = Netlist.remove_device circ "C1" in
  check "remove_device" removed
    [ ("V1", Some 2); ("R1", Some 3); ("C1", None); ("R2", Some 5) ];
  check "re-added" (Netlist.capacitor removed "C1" "b" "0" 1e-9)
    [ ("C1", None); ("R2", Some 5) ];
  let doubled =
    Netlist.map_devices
      (function
        | Netlist.Resistor r -> Netlist.Resistor { r with r = 2. *. r.r }
        | d -> d)
      circ
  in
  check "map_devices" doubled all;
  let probed = Transform.with_ac_current_probe circ "b" in
  check "with_ac_current_probe" probed
    ((Transform.probe_name, None) :: all)

(* The line of each lint finding on the shipped circuits and the
   exported built-in decks, as (deck, rule, line, devices). The shipped
   circuits lint clean. *)
let finding_lines =
  [ ("bias_zero_tc", "gain-outside-loop", Some 10, [ "Q5" ]);
    ("bias_zero_tc", "gain-outside-loop", Some 12, [ "Q3" ]);
    ("opamp_2mhz_buffer", "gain-outside-loop", Some 10, [ "M5" ]);
    ("opamp_2mhz_buffer", "gain-outside-loop", Some 12, [ "M7" ]);
    ("opamp_2mhz_buffer", "gain-outside-loop", Some 22, [ "Q5" ]);
    ("opamp_2mhz_buffer", "gain-outside-loop", Some 24, [ "Q3" ]) ]

(* Every device cites the physical line its card starts on, and every
   finding the line above, on the decks as the CLI reads them. *)
let test_finding_lines () =
  let exported =
    [ ("opamp_2mhz_buffer", Workloads.Opamp_2mhz.buffer ());
      ("bias_zero_tc", Workloads.Bias_zero_tc.cell ());
      ("nmc_amp_buffer", Workloads.Nmc_amp.buffer ());
      ("rc_ladder_20", Workloads.Ladder.rc ()) ]
    |> List.map (fun (name, c) -> (name, Netlist.to_spice c))
  in
  let shipped =
    List.map
      (fun f ->
        (Filename.remove_extension f,
         Parser.read_file (Filename.concat "../circuits" f)))
      shipped
  in
  let cited =
    List.concat_map
      (fun (name, text) ->
        let circ = Parser.parse_file_text (name ^ ".sp") text in
        let lines = Array.of_list (String.split_on_char '\n' text) in
        List.iter
          (fun d ->
            let dev = Netlist.device_name d in
            match Netlist.device_line circ dev with
            | None -> Alcotest.failf "%s: %s has no line" name dev
            | Some l ->
              let card = String.trim lines.(l - 1) in
              Alcotest.(check string)
                (Printf.sprintf "%s: %s starts line %d" name dev l)
                (String.lowercase_ascii dev)
                (String.lowercase_ascii
                   (List.hd (String.split_on_char ' ' card))))
          (Netlist.devices circ);
        List.map
          (fun (f : Lint.Rule.finding) -> (name, f.rule_id, f.line, f.devices))
          (Lint.Runner.run circ))
      (shipped @ exported)
  in
  Alcotest.(check (list (pair (pair string string)
                           (pair (option int) (list string)))))
    "findings and their lines"
    (List.map (fun (d, r, l, ds) -> ((d, r), (l, ds))) finding_lines)
    (List.sort compare (List.map (fun (d, r, l, ds) -> ((d, r), (l, ds))) cited))

let test_compile_error_cites_line () =
  let circ = parse "badmodel\nV1 a 0 DC 1\nR1 a 0 1k\nD1 a 0 nosuch\n" in
  match Engine.Mna.compile circ with
  | _ -> Alcotest.fail "compile should fail"
  | exception Engine.Mna.Compile_error m ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S cites line 4" m)
      true
      (String.length m >= 7 && String.sub m 0 7 = "line 4:")

(* ---------- solver diagnostics ---------- *)

let test_unknown_name () =
  let circ = parse "names\nV1 in 0 DC 1\nR1 in out 1k\nL1 out 0 1u\n" in
  let mna = Engine.Mna.compile circ in
  let names =
    List.init mna.Engine.Mna.size (Engine.Mna.unknown_name mna)
  in
  Alcotest.(check bool) "node unknowns named" true
    (List.mem "V(in)" names && List.mem "V(out)" names);
  Alcotest.(check bool) "branch unknowns named" true
    (List.mem "I(V1)" names && List.mem "I(L1)" names)

let test_dcop_singular_names_branch () =
  let circ = parse "par\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n" in
  let mna = Engine.Mna.compile circ in
  match Engine.Dcop.solve mna with
  | _ -> Alcotest.fail "parallel V sources must not solve"
  | exception Engine.Dcop.No_convergence m ->
    let mentions sub =
      let n = String.length sub and len = String.length m in
      let rec go i =
        i + n <= len && (String.sub m i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error %S names a branch current" m)
      true
      (mentions "I(V1)" || mentions "I(V2)");
    Alcotest.(check bool) "never a bare index" false (mentions "unknown ")

let test_explain_singular () =
  let circ = parse "par\nV1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n" in
  let fs = Lint.Runner.explain_singular circ in
  Alcotest.(check bool) "explanation found" true (fs <> []);
  Alcotest.(check bool) "vsource-loop among causes" true
    (has_id "vsource-loop" fs)

(* ---------- structural predictor vs the numeric factorization ---------- *)

(* The DC matrix exactly as Dcop's direct attempt builds it. *)
let dc_singular circ =
  let mna = Engine.Mna.compile circ in
  let a = Numerics.Rmat.create mna.Engine.Mna.size mna.Engine.Mna.size in
  let b = Array.make mna.Engine.Mna.size 0. in
  Engine.Stamps.stamp_static mna
    ~src_value:(fun s -> s.Netlist.dc)
    a b;
  Array.iter
    (fun (_, e) ->
      match e with
      | Engine.Mna.E_ind { i; j; br; _ } ->
        Engine.Mna.stamp_mat a i br 1.;
        Engine.Mna.stamp_mat a j br (-1.);
        Engine.Mna.stamp_mat a br i 1.;
        Engine.Mna.stamp_mat a br j (-1.)
      | _ -> ())
    mna.Engine.Mna.elems;
  Engine.Stamps.stamp_gmin mna ~gmin:1e-12 a;
  match Numerics.Rmat.solve a b with
  | _ -> false
  | exception Numerics.Dense.Singular _ -> true

(* Random linear ladder: V source into a chain of resistors, with a few
   extra Rs and Cs sprinkled between existing nets. Always solvable. *)
let base_circuit rand =
  let n = 2 + (rand mod 4) in
  let net k = Printf.sprintf "n%d" k in
  let c = Netlist.empty () in
  let c = Netlist.vsource c "V1" (net 0) "0" (Netlist.dc_source 1.) in
  let c =
    List.fold_left
      (fun c k ->
        Netlist.resistor c
          (Printf.sprintf "R%d" k)
          (net k)
          (if k = n - 1 then "0" else net (k + 1))
          (1e3 *. float_of_int (1 + (rand / (k + 1) mod 9))))
      c
      (List.init n Fun.id)
  in
  let c =
    if rand mod 3 = 0 then
      Netlist.capacitor c "Cx" (net (rand mod n)) "0" 1e-12
    else c
  in
  if rand mod 5 = 0 then
    Netlist.resistor c "Rx" (net (rand mod n)) (net (rand / 7 mod n)) 4.7e3
  else c

(* Injected defects from the exactly-singular family: each produces a
   structurally singular system (identical or dependent V-defined rows),
   so the dense LU hits an exact zero pivot regardless of values. *)
let inject_defect rand c =
  let net k = Printf.sprintf "n%d" k in
  match rand mod 3 with
  | 0 -> Netlist.vsource c "Vdup" (net 0) "0" (Netlist.dc_source 1.)
  | 1 -> Netlist.vsource c "Vshort" (net 0) (net 0) (Netlist.dc_source 0.)
  | _ ->
    let c = Netlist.inductor c "Ld1" (net 0) "0" 1e-6 in
    Netlist.inductor c "Ld2" (net 0) "0" 2.2e-6

let structurally_flagged findings =
  List.exists
    (fun (f : Lint.Rule.finding) ->
      f.severity = Lint.Rule.Error
      && List.mem f.rule_id
           [ "vsource-loop"; "shorted-element"; "singular-structure" ])
    findings

let prop_lint_predicts_singular =
  QCheck.Test.make
    ~name:"lint flags a structural defect iff the dense DC LU is singular"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun rand ->
      let healthy = base_circuit rand in
      let broken = inject_defect rand healthy in
      let healthy_singular = dc_singular healthy in
      let healthy_flagged = structurally_flagged (Lint.Runner.run healthy) in
      let broken_singular = dc_singular broken in
      let broken_flagged = structurally_flagged (Lint.Runner.run broken) in
      (healthy_singular = healthy_flagged)
      && (not healthy_singular)
      && broken_singular = broken_flagged && broken_singular)

(* ---------- the lint footprint covers every stamp ---------- *)

(* Lint's structural-singularity rule reasons over
   [Mna.structural_pattern]; its prediction is sound only if every entry
   a solver stamps lies inside that pattern. The AC, pole and DC-linear
   solvers all stamp [Stamps.pencil], so fold it at the operating point
   and look each entry up. No shipped deck has an F, H or D card, hence
   the inline deck with one card of every kind. *)
let every_kind =
  "every element kind\nVCC vcc 0 DC 5\nV1 in 0 DC 1 AC 1\nR1 in a 1k\n\
   C1 a 0 1n\nL1 a b 10u\nL2 b 0 22u\nK1 L1 L2 0.5\nR0 b 0 50\n\
   I1 0 b DC 1m\nE1 c 0 a 0 2\nR2 c d 1k\nF1 d 0 V1 0.1\n\
   G1 e 0 d 0 1m\nR3 e 0 1k\nH1 f 0 V1 100\nR4 f 0 1k\n\
   RB1 vcc bq 10k\nRB2 bq 0 10k\nD1 bq dd DX\nRD dd 0 10k\n\
   Q1 vcc bq q QNPN\nRQ q 0 10k\nM1 m bq 0 0 MN W=10u L=1u\nRM vcc m 10k\n\
   .model DX d (is=10f cj=1p)\n\
   .model QNPN npn (is=0.1f bf=150 vaf=80 cpi=1p cmu=80f ccs=150f)\n\
   .model MN nmos (kp=100u vto=800m lambda=40m cox=2.3m cgso=300p \
   cgdo=300p cbd=20f cbs=20f)\n.end\n"

let test_pattern_covers_pencil () =
  let card_letters =
    List.map
      (fun d -> Char.uppercase_ascii (Netlist.device_name d).[0])
      (Netlist.devices (parse every_kind))
    |> List.sort_uniq compare |> List.to_seq |> String.of_seq
  in
  Alcotest.(check string) "inline deck has every element kind"
    "CDEFGHIKLMQRV" card_letters;
  let decks =
    List.map
      (fun n -> (n, Parser.parse_file (Filename.concat "../circuits" n)))
      shipped
    @ [ ("opamp_2mhz_buffer", Workloads.Opamp_2mhz.buffer ());
        ("bias_zero_tc", Workloads.Bias_zero_tc.cell ());
        ("nmc_amp_buffer", Workloads.Nmc_amp.buffer ());
        ("rc_ladder_20", Workloads.Ladder.rc ());
        ("rc_mesh 4x5", Workloads.Synth.rc_mesh ~rows:4 ~cols:5 ());
        ("rc_tree 3/3", Workloads.Synth.rc_tree ~depth:3 ~fanout:3 ());
        ("amp_array 3", Workloads.Synth.amp_array ~stages:3 ());
        ("every element kind", parse every_kind) ]
  in
  List.iter
    (fun (name, circ) ->
      let mna = Engine.Mna.compile circ in
      let op = Engine.Dcop.solve mna in
      let pattern = Hashtbl.create 256 in
      List.iter
        (fun ij -> Hashtbl.replace pattern ij ())
        (Engine.Mna.structural_pattern mna);
      let stamped = ref 0 in
      Engine.Stamps.pencil mna (Engine.Linearize.of_op op) ~gmin:1e-12
        (fun i j _ _ ->
          incr stamped;
          if not (Hashtbl.mem pattern (i, j)) then
            Alcotest.failf "%s: the pencil stamps (%s, %s) outside the \
                            lint footprint"
              name (Engine.Mna.unknown_name mna i)
              (Engine.Mna.unknown_name mna j));
      Alcotest.(check bool) (name ^ " stamps its pencil") true
        (!stamped > 0))
    decks

(* ---------- JSON ---------- *)

let test_json () =
  let circ = parse "vloop\nV1 a 0 DC 1\nV2 a 0 DC 1\nR1 a 0 1k\n" in
  let findings = Lint.Runner.run circ in
  let js = Tool.Json.to_string (Tool.Lint_report.json ~file:"vloop.sp" findings) in
  let mentions sub =
    let n = String.length sub and len = String.length js in
    let rec go i = i + n <= len && (String.sub js i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "file recorded" true
    (mentions "\"file\":\"vloop.sp\"");
  Alcotest.(check bool) "rule id present" true
    (mentions "\"rule\":\"vsource-loop\"");
  Alcotest.(check bool) "error count" true (mentions "\"errors\":2");
  Alcotest.(check bool) "line recorded" true (mentions "\"line\":3");
  Alcotest.(check bool) "quotes escaped" true (mentions "\\\"V2\\\"")

let test_json_escaping () =
  let f =
    Lint.Rule.finding ~id:"x" Lint.Rule.Info "tab\there \"and\" \\ nl\n"
  in
  Alcotest.(check string) "escapes"
    "{\"rule\":\"x\",\"severity\":\"info\",\"message\":\"tab\\there \
     \\\"and\\\" \\\\ nl\\n\",\"nets\":[],\"devices\":[]}"
    (Tool.Json.to_string (Tool.Lint_report.finding_json f))

(* ---------- graph-powered rules ---------- *)

(* A purely resistive gm ring: a genuine global loop with no capacitor
   anywhere on it. *)
let resistive_ring =
  "ring\nVIN in 0 DC 0 AC 1\nRIN in a 1k\nGA b 0 a 0 1m\nRA b 0 1k\n\
   GB c 0 b 0 1m\nRB c 0 1k\nGC a 0 c 0 1m\nRC2 a 0 1k\n.end\n"

let test_loop_no_compensation () =
  let findings = Lint.Runner.run (parse resistive_ring) in
  Alcotest.(check bool) "uncompensated ring flagged" true
    (has_id "loop-no-compensation" findings);
  (* A capacitor on any member net is taken as compensation. *)
  let comp =
    Lint.Runner.run
      (parse
         "ring\nVIN in 0 DC 0 AC 1\nRIN in a 1k\nGA b 0 a 0 1m\n\
          RA b 0 1k\nCB b 0 1p\nGB c 0 b 0 1m\nRB c 0 1k\n\
          GC a 0 c 0 1m\nRC2 a 0 1k\n.end\n")
  in
  Alcotest.(check bool) "compensated ring passes" false
    (has_id "loop-no-compensation" comp)

(* The rule as it stood when it tested each loop net against a list of
   every capacitor net: quadratic on long chains, kept as the oracle for
   the hashed rule, whose findings must be identical. *)
let loop_no_compensation_oracle (ctx : Lint.Rule.ctx) =
  let report = Lazy.force ctx.static in
  let canon n = if Netlist.is_ground n then Netlist.ground else n in
  let cap_nets =
    List.concat_map
      (fun d ->
        match d with
        | Netlist.Capacitor { n1; n2; _ } -> [ canon n1; canon n2 ]
        | _ -> [])
      (Netlist.devices ctx.circ)
  in
  List.filter_map
    (fun (l : Staticanalysis.Report.loop) ->
      match l.kind with
      | Staticanalysis.Report.Local _ -> None
      | Staticanalysis.Report.Global ->
        if List.exists (fun n -> List.mem n cap_nets) l.nets then None
        else
          Some
            (Lint.Rule.finding ~nets:l.nets ~devices:l.devices
               ~id:"loop-no-compensation" Lint.Rule.Warning
               (Printf.sprintf
                  "global feedback loop %s has no capacitor on any member \
                   net: no compensation shapes its response"
                  l.id)))
    report.loops

(* Shipped decks, and amp_array chains of 1 to 50 stages as built (every
   loop compensated), with every capacitor swapped for a resistor (every
   loop bare) and with only the odd stages' swapped (both kinds). *)
let test_loop_no_compensation_oracle () =
  let rule = Option.get (Lint.Rules.find "loop-no-compensation") in
  let check name circ =
    let ctx = Lint.Rule.make_ctx circ in
    let expected = loop_no_compensation_oracle ctx in
    Alcotest.(check bool) (name ^ ": findings as the list rule's") true
      (rule.Lint.Rule.check ctx = expected);
    List.length expected
  in
  let flagged = ref 0 in
  List.iter
    (fun name ->
      ignore
        (check name (Parser.parse_file (Filename.concat "../circuits" name))))
    shipped;
  List.iter
    (fun (name, circ) -> ignore (check name circ))
    [ ("opamp", Workloads.Opamp_2mhz.buffer ());
      ("bias", Workloads.Bias_zero_tc.cell ());
      ("nmc", Workloads.Nmc_amp.buffer ());
      ("ring", parse resistive_ring) ];
  let bare keep circ =
    Netlist.map_devices
      (function
        | Netlist.Capacitor { name; n1; n2; c; _ } when not (keep name) ->
          Netlist.Resistor { name = "R" ^ name; n1; n2; r = 1. /. c; tc1 = 0.; tc2 = 0. }
        | d -> d)
      circ
  in
  let odd name =
    match String.rindex_opt name '_' with
    | Some i ->
      int_of_string (String.sub name (i + 1) (String.length name - i - 1))
      mod 2 = 1
    | None -> false
  in
  for stages = 1 to 50 do
    let circ = Workloads.Synth.amp_array ~stages () in
    let label what = Printf.sprintf "amp_array %d %s" stages what in
    Alcotest.(check int) (label "as built") 0 (check (label "as built") circ);
    flagged := !flagged + check (label "bare") (bare (fun _ -> false) circ);
    ignore (check (label "odd stages bare") (bare (fun n -> not (odd n)) circ))
  done;
  Alcotest.(check bool) "bare chains flag their loops" true (!flagged > 0)

let test_gain_outside_loop () =
  let findings =
    Lint.Runner.run
      (parse
         "open\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n\
          G1 x 0 y 0 1m\nR2 y 0 1k\nR3 x 0 1k\n.end\n")
  in
  let open_gain =
    List.filter (fun (f : Lint.Rule.finding) ->
        f.rule_id = "gain-outside-loop") findings
  in
  Alcotest.(check int) "exactly the dangling VCCS" 1 (List.length open_gain);
  Alcotest.(check bool) "names G1" true
    (List.exists (fun (f : Lint.Rule.finding) ->
         List.mem "G1" f.devices) open_gain);
  (* Every gain device of the ring closes a cycle: nothing to report. *)
  Alcotest.(check bool) "ring devices all in-loop" false
    (has_id "gain-outside-loop" (Lint.Runner.run (parse resistive_ring)))

let test_loop_through_suspect () =
  (* A farad-scale capacitor closing a feedback pair: the value check
     flags it, so every loop through it is untrustworthy. *)
  let findings =
    Lint.Runner.run
      (parse
         "sus\nVIN in 0 DC 0 AC 1\nRIN in a 1k\nGA b 0 a 0 1m\n\
          RA b 0 1k\nCBAD a b 10\nRL a 0 1k\n.end\n")
  in
  Alcotest.(check bool) "loop through the 10 F cap flagged" true
    (has_id "loop-through-suspect" findings);
  Alcotest.(check bool) "clean ring not flagged" false
    (has_id "loop-through-suspect" (Lint.Runner.run (parse resistive_ring)))

let test_undrivable_probe () =
  let sev id sv findings =
    List.exists (fun (f : Lint.Rule.finding) ->
        f.rule_id = id && f.severity = sv) findings
  in
  (* Unknown net: an error (the analysis would reject it anyway). *)
  let bogus =
    Lint.Runner.run
      (parse "b\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n\
              .stab bogus\n.end\n")
  in
  Alcotest.(check bool) "unknown .stab target is an error" true
    (sev "undrivable-probe" Lint.Rule.Error bogus);
  (* Voltage-pinned target: a warning naming the pinning driver. *)
  let pinned =
    Lint.Runner.run
      (parse "p\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n\
              .stab in\n.end\n")
  in
  Alcotest.(check bool) "pinned .stab target warns" true
    (sev "undrivable-probe" Lint.Rule.Warning pinned);
  Alcotest.(check bool) "pinning driver named" true
    (List.exists (fun (f : Lint.Rule.finding) ->
         f.rule_id = "undrivable-probe" && List.mem "VIN" f.devices) pinned);
  (* Source-unreachable target: stimulus cannot excite it. *)
  let island =
    Lint.Runner.run
      (parse "i\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nG1 x 0 y 0 1m\n\
              R2 y 0 1k\nR3 x 0 1k\n.stab x\n.end\n")
  in
  Alcotest.(check bool) "unreachable .stab target warns" true
    (sev "undrivable-probe" Lint.Rule.Warning island);
  (* A reachable, unpinned target is exactly what .stab is for. *)
  let ok =
    Lint.Runner.run
      (parse "ok\nVIN in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1n\n\
              .stab out\n.end\n")
  in
  Alcotest.(check bool) "healthy .stab target passes" false
    (has_id "undrivable-probe" ok)

let test_unobservable_loop () =
  (* Two cross-coupled E sources: both loop nets voltage-pinned, so no
     probe can observe the loop. *)
  let findings =
    Lint.Runner.run
      (parse "u\nEA a 0 b 0 1\nEB b 0 a 0 2\nRA a 0 1k\n.end\n")
  in
  Alcotest.(check bool) "all-pinned loop flagged" true
    (has_id "unobservable-loop" findings);
  Alcotest.(check bool) "probeable ring not flagged" false
    (has_id "unobservable-loop" (Lint.Runner.run (parse resistive_ring)))

(* ---------- suite ---------- *)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "shipped circuits clean" `Quick
            test_shipped_clean;
          Alcotest.test_case "floating net" `Quick test_floating_net;
          Alcotest.test_case "V-source loop" `Quick test_vsource_loop;
          Alcotest.test_case "V parallel L loop" `Quick test_vl_loop;
          Alcotest.test_case "I-source cutset" `Quick test_isource_cutset;
          Alcotest.test_case "cap island only warns" `Quick
            test_cap_island_is_warning;
          Alcotest.test_case "shorted element" `Quick test_shorted;
          Alcotest.test_case "duplicate via API rename" `Quick
            test_duplicate_via_api;
          Alcotest.test_case "zero and suspicious values" `Quick
            test_values;
          Alcotest.test_case "bad mutual" `Quick test_bad_mutual;
          Alcotest.test_case "unknown model/control refs" `Quick
            test_unknown_refs;
          Alcotest.test_case "no ground" `Quick test_no_ground;
          Alcotest.test_case "per-rule disable" `Quick test_disable;
          Alcotest.test_case "catalogue lookup" `Quick test_rules_find ] );
      ( "graph rules",
        [ Alcotest.test_case "loop-no-compensation" `Quick
            test_loop_no_compensation;
          Alcotest.test_case "loop-no-compensation = list oracle" `Quick
            test_loop_no_compensation_oracle;
          Alcotest.test_case "gain-outside-loop" `Quick
            test_gain_outside_loop;
          Alcotest.test_case "loop-through-suspect" `Quick
            test_loop_through_suspect;
          Alcotest.test_case "undrivable-probe" `Quick
            test_undrivable_probe;
          Alcotest.test_case "unobservable-loop" `Quick
            test_unobservable_loop ] );
      ( "matching",
        [ Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "deficient" `Quick test_matching_deficient;
          Alcotest.test_case "cycle cover" `Quick test_matching_wide ] );
      ( "lines",
        [ Alcotest.test_case "parser records lines" `Quick
            test_lines_recorded;
          Alcotest.test_case "lines survive edits" `Quick
            test_lines_survive_edits;
          Alcotest.test_case "findings cite their lines" `Quick
            test_finding_lines;
          Alcotest.test_case "compile error cites line" `Quick
            test_compile_error_cites_line ] );
      ( "diagnostics",
        [ Alcotest.test_case "unknown_name" `Quick test_unknown_name;
          Alcotest.test_case "singular names branch" `Quick
            test_dcop_singular_names_branch;
          Alcotest.test_case "explain_singular" `Quick
            test_explain_singular;
          Alcotest.test_case "footprint covers the pencil" `Quick
            test_pattern_covers_pencil ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lint_predicts_singular ] );
      ( "json",
        [ Alcotest.test_case "report shape" `Quick test_json;
          Alcotest.test_case "string escaping" `Quick test_json_escaping ]
      ) ]
