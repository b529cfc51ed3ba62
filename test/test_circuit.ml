(* Netlist model, expression evaluator, SPICE parser, topology checks and
   transforms. *)

open Circuit

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

(* ---------- expressions ---------- *)

let test_expr_basic () =
  List.iter
    (fun (s, v) -> check_close s v (Expr.eval s))
    [ ("1+2*3", 7.); ("(1+2)*3", 9.); ("2^10", 1024.); ("-2^2", -4.);
      ("10/4", 2.5); ("1k+1", 1001.); ("sqrt(16)", 4.);
      ("max(1,min(5,3))", 3.); ("2*pi", 2. *. Float.pi);
      ("exp(0)", 1.); ("ln(e)", 1.); ("log(100)", 2.);
      ("pow(2,0.5)", sqrt 2.); ("abs(-3)", 3.) ]

let test_expr_env () =
  let env = [ ("Rload", 2e3); ("gain", 10.) ] in
  check_close "env vars" 2.2e4 (Expr.eval ~env "rload*gain+2k");
  check_close "value braces" 1e3 (Expr.value ~env "{Rload/2}");
  check_close "value plain" 4.7e-12 (Expr.value ~env "4.7p");
  check_close "value bare name" 2e3 (Expr.value ~env "rload")

let test_expr_errors () =
  Alcotest.(check bool) "unknown name" true (Expr.eval_opt "nosuch" = None);
  Alcotest.(check bool) "syntax" true (Expr.eval_opt "1+" = None);
  Alcotest.(check bool) "arity" true (Expr.eval_opt "sqrt(1,2)" = None)

(* ---------- netlist builder ---------- *)

let test_builder_duplicate () =
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "a" "b" 1e3 in
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (Netlist.resistor c "r1" "c" "d" 1.); false
     with Invalid_argument _ -> true)

let test_node_names () =
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "a" "b" 1. in
  let c = Netlist.resistor c "R2" "b" "0" 1. in
  let c = Netlist.resistor c "R3" "b" "GND" 1. in
  Alcotest.(check (list string)) "non-ground nets" [ "a"; "b" ]
    (Netlist.node_names c)

(* ---------- parser ---------- *)

let sample_netlist = {|simple divider test
* a comment line
.param rtop=1k rbot={rtop*3}
V1 in 0 DC 10 AC 1
R1 in mid {rtop}
R2 mid 0 {rbot}   ; trailing comment
C1 mid 0 10p IC=0.5
.model DX d (is=1e-14 n=1.05)
D1 mid 0 DX
.ac dec 10 1 1meg
.end
|}

let test_parse_basic () =
  let c = Parser.parse_string sample_netlist in
  Alcotest.(check string) "title" "simple divider test" (Netlist.title c);
  Alcotest.(check int) "device count" 5 (List.length (Netlist.devices c));
  (match Netlist.find_device c "R2" with
   | Some (Netlist.Resistor { r; _ }) -> check_close "param expr" 3e3 r
   | _ -> Alcotest.fail "R2 missing");
  (match Netlist.find_device c "V1" with
   | Some (Netlist.Vsource { spec; _ }) ->
     check_close "dc" 10. spec.dc;
     check_close "ac" 1. spec.ac_mag
   | _ -> Alcotest.fail "V1 missing");
  (match Netlist.find_device c "C1" with
   | Some (Netlist.Capacitor { c = cv; ic; _ }) ->
     check_close "cap" 10e-12 cv;
     check_close "ic" 0.5 (Option.get ic)
   | _ -> Alcotest.fail "C1 missing");
  (match Netlist.find_model c "DX" with
   | Some m -> check_close "model param" 1.05 (Netlist.model_param m "n" ~default:0.)
   | None -> Alcotest.fail "model DX missing");
  match Netlist.directives c with
  | [ Netlist.Ac _ ] -> ()
  | _ -> Alcotest.fail "expected one .ac directive"

let test_parse_continuation () =
  let c =
    Parser.parse_string
      "V1 in 0 DC 1\n+ AC 2 45\nR1 in 0 1k\n"
  in
  match Netlist.find_device c "V1" with
  | Some (Netlist.Vsource { spec; _ }) ->
    check_close "dc" 1. spec.dc;
    check_close "ac mag" 2. spec.ac_mag;
    check_close "ac phase" 45. spec.ac_phase_deg
  | _ -> Alcotest.fail "V1 missing"

let test_parse_sources () =
  let c =
    Parser.parse_string
      "V1 a 0 PULSE(0 5 1u 2n 3n 4u 10u)\nV2 b 0 SIN(1 2 1meg)\n\
       V3 c 0 PWL(0 0 1u 5 2u 5)\nR1 a 0 1\nR2 b 0 1\nR3 c 0 1\n"
  in
  (match Netlist.find_device c "V1" with
   | Some (Netlist.Vsource { spec = { wave = Some (Netlist.Pulse p); _ }; _ })
     ->
     check_close "v2" 5. p.v2;
     check_close "delay" 1e-6 p.delay;
     check_close "width" 4e-6 p.width
   | _ -> Alcotest.fail "V1 pulse missing");
  (match Netlist.find_device c "V2" with
   | Some (Netlist.Vsource { spec = { wave = Some (Netlist.Sine s); _ }; _ })
     ->
     check_close "freq" 1e6 s.freq;
     check_close "ampl" 2. s.ampl
   | _ -> Alcotest.fail "V2 sine missing");
  match Netlist.find_device c "V3" with
  | Some (Netlist.Vsource { spec = { wave = Some (Netlist.Pwl pts); _ }; _ })
    -> Alcotest.(check int) "pwl corners" 3 (List.length pts)
  | _ -> Alcotest.fail "V3 pwl missing"

let subckt_netlist = {|subckt flattening
.subckt divider top bot mid ratio=2
R1 top mid {1k*ratio}
R2 mid bot 1k
.ends
V1 in 0 DC 9
X1 in 0 tap divider ratio=8
R3 tap 0 1meg
.end
|}

let test_parse_subckt () =
  let c = Parser.parse_string subckt_netlist in
  (match Netlist.find_device c "X1.R1" with
   | Some (Netlist.Resistor { r; n1; n2; _ }) ->
     check_close "override param" 8e3 r;
     Alcotest.(check string) "port mapped" "in" n1;
     Alcotest.(check string) "internal net kept by name" "tap" n2
   | _ -> Alcotest.fail "X1.R1 missing");
  match Netlist.find_device c "X1.R2" with
  | Some (Netlist.Resistor { n1; n2; _ }) ->
    Alcotest.(check string) "mid port" "tap" n1;
    Alcotest.(check string) "ground port" "0" n2
  | _ -> Alcotest.fail "X1.R2 missing"

let test_parse_roundtrip () =
  let c = Parser.parse_string sample_netlist in
  let again = Parser.parse_string (Netlist.to_spice c) in
  Alcotest.(check int) "device count preserved"
    (List.length (Netlist.devices c))
    (List.length (Netlist.devices again));
  match Netlist.find_device again "R2" with
  | Some (Netlist.Resistor { r; _ }) -> check_close ~tol:1e-3 "value" 3e3 r
  | _ -> Alcotest.fail "R2 missing after roundtrip"

let test_parse_errors () =
  let expect_error s =
    match Parser.parse_string s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  (* Leading comment keeps the first real line from being read as a SPICE
     title. *)
  expect_error "* t\nR1 a b\n";              (* missing value *)
  expect_error "* t\nR1 a b 1k\nR1 c d 2k\n"; (* duplicate *)
  expect_error "* t\nZ1 a b 1k 2k\n";        (* unknown element *)
  expect_error "* t\n.subckt foo a\nR1 a 0 1\n"; (* missing .ends *)
  expect_error "* t\nX1 a b nosuch\nR1 a 0 1k\n" (* unknown subckt *)

let test_parse_mutual () =
  let c =
    Parser.parse_string
      "* t\nL1 a 0 1u\nL2 b 0 4u\nK1 L1 L2 0.5\nR1 a b 1k\n"
  in
  (match Netlist.find_device c "K1" with
   | Some (Netlist.Mutual { l1; l2; k; _ }) ->
     Alcotest.(check string) "l1" "L1" l1;
     Alcotest.(check string) "l2" "L2" l2;
     check_close "k" 0.5 k
   | _ -> Alcotest.fail "K1 missing");
  (* |k| >= 1 is rejected. *)
  Alcotest.(check bool) "k >= 1 rejected" true
    (match
       Parser.parse_string "* t\nL1 a 0 1u\nL2 b 0 1u\nK1 L1 L2 1.5\n"
     with
     | exception Parser.Parse_error _ -> true
     | _ -> false);
  (* Compilation resolves M = k sqrt(L1 L2). *)
  let mna = Engine.Mna.compile c in
  Alcotest.(check bool) "compiles" true (mna.Engine.Mna.size > 0)

let test_resistor_tc () =
  let c =
    Parser.parse_string "* t\nV1 a 0 DC 1\nR1 a 0 1k TC1=2e-3 TC2=1e-6\n"
  in
  (match Netlist.find_device c "R1" with
   | Some (Netlist.Resistor { tc1; tc2; _ }) ->
     check_close "tc1" 2e-3 tc1;
     check_close "tc2" 1e-6 tc2
   | _ -> Alcotest.fail "R1 missing");
  (* The compiled conductance tracks temperature: at 127 C,
     R = 1k (1 + 0.2 + 0.01) = 1.21k. *)
  let at_t t =
    let op = Engine.Dcop.solve (Engine.Mna.compile (Netlist.with_temp t c)) in
    Engine.Dcop.branch_current op "V1"
  in
  check_close ~tol:1e-9 "nominal current" (-1e-3) (at_t 27.);
  check_close ~tol:1e-6 "hot current" (-1. /. 1210.) (at_t 127.)

let test_parse_options () =
  let c =
    Parser.parse_string
      "* t\n.options gmin=1e-10 reltol=1e-4\nR1 a 0 1k\nV1 a 0 DC 1\n"
  in
  check_close "gmin" 1e-10 (Netlist.option_value c "gmin" ~default:0.);
  check_close "reltol" 1e-4 (Netlist.option_value c "reltol" ~default:0.);
  check_close "absent uses default" 42.
    (Netlist.option_value c "nosuch" ~default:42.);
  (* The DC solver picks them up. *)
  let o = Engine.Dcop.circuit_options c in
  check_close "solver gmin" 1e-10 o.Engine.Dcop.gmin;
  check_close "solver reltol" 1e-4 o.Engine.Dcop.reltol

let test_parse_include () =
  let dir = Filename.temp_file "inc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sub = Filename.concat dir "models.inc" in
  let oc = open_out sub in
  output_string oc ".model DX d (is=2e-14)\nR9 shared 0 9k\n";
  close_out oc;
  let main = Filename.concat dir "top.sp" in
  let oc = open_out main in
  output_string oc
    "top deck\n.include models.inc\nV1 in 0 DC 1\nR1 in shared 1k\nD1 shared 0 DX\n.end\n";
  close_out oc;
  let c = Parser.parse_file main in
  Sys.remove sub;
  Sys.remove main;
  Unix.rmdir dir;
  (match Netlist.find_model c "DX" with
   | Some m -> check_close "included model" 2e-14
                 (Netlist.model_param m "is" ~default:0.)
   | None -> Alcotest.fail "included model missing");
  Alcotest.(check bool) "included device present" true
    (Netlist.find_device c "R9" <> None)

(* Expansion is callable alone and safe: include-free text comes back
   byte-identical (so a deck's fingerprint is unchanged), and a file
   that includes itself or a missing file is a Parse_error at the
   top-level line that started the chain, never an uncaught Failure. *)
let test_expand_includes () =
  let dir = Filename.temp_file "incx" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write name text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc text)
  in
  let plain = "title\r\nR1 a 0 1k\n\n  * note\nC1 a 0 1p\n.end" in
  Alcotest.(check string) "include-free text unchanged" plain
    (Parser.expand_includes ~base_dir:dir plain);
  write "loop.sp" "loop\n.include \"loop.sp\"\nR1 a 0 1k\n";
  write "mid.inc" "* mid\n.include loop.sp\n";
  let expect_line name line text =
    match Parser.expand_includes ~base_dir:dir text with
    | _ -> Alcotest.failf "%s: expansion should fail" name
    | exception Parser.Parse_error { line = l; _ } ->
      Alcotest.(check int) (name ^ ": top-level line") line l
  in
  expect_line "self include" 2 "loop\n.include \"loop.sp\"\nR1 a 0 1k\n";
  expect_line "chain through a file" 3
    "top\nR1 a 0 1k\n.INCLUDE mid.inc\n.end\n";
  expect_line "missing file" 2 "top\n.include nosuch.inc\n";
  (match
     Parser.parse_file_text (Filename.concat dir "loop.sp")
       "loop\n.include \"loop.sp\"\n"
   with
   | _ -> Alcotest.fail "parse of a self-including deck should fail"
   | exception Parser.Parse_error { line = 2; _ } -> ());
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "loop.sp"; "mid.inc" ];
  Unix.rmdir dir

(* ---------- topology ---------- *)

let test_topology_checks () =
  let c = Netlist.empty () in
  let c = Netlist.vsource c "V1" "in" "0" (Netlist.dc_source 1.) in
  let c = Netlist.resistor c "R1" "in" "out" 1e3 in
  let c = Netlist.resistor c "R2" "out" "0" 1e3 in
  Alcotest.(check (list string)) "clean circuit" []
    (List.map (Format.asprintf "%a" Topology.pp_issue) (Topology.check c));
  (* Dangling node: one-ended resistor chain. *)
  let c2 = Netlist.resistor c "R3" "out" "nowhere" 1e3 in
  Alcotest.(check bool) "dangling flagged" true
    (List.exists
       (function Topology.Dangling_node "nowhere" -> true | _ -> false)
       (Topology.check c2));
  (* Cap-only path to ground -> No_dc_path. *)
  let c3 = Netlist.empty () in
  let c3 = Netlist.vsource c3 "V1" "in" "0" (Netlist.dc_source 1.) in
  let c3 = Netlist.resistor c3 "R1" "in" "a" 1e3 in
  let c3 = Netlist.capacitor c3 "C1" "a" "b" 1e-12 in
  let c3 = Netlist.resistor c3 "R2" "b" "0" 1e3 in
  ignore c3;
  let issues = Topology.check c3 in
  Alcotest.(check bool) "isolated-by-cap segment is still AC-connected" true
    (not
       (List.exists
          (function Topology.Disconnected _ -> true | _ -> false)
          issues))

let test_no_ground () =
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "a" "b" 1e3 in
  Alcotest.(check bool) "no ground flagged" true
    (List.mem Topology.No_ground (Topology.check c))

(* ---------- transforms ---------- *)

let test_zero_ac () =
  let c = Netlist.empty () in
  let c = Netlist.vsource c "V1" "in" "0" (Netlist.ac_source ~dc:5. 1.) in
  let c = Netlist.isource c "I1" "in" "0" (Netlist.ac_source 2.) in
  let z = Transform.zero_ac_sources c in
  List.iter
    (fun d ->
      match d with
      | Netlist.Vsource { spec; _ } | Netlist.Isource { spec; _ } ->
        check_close "ac zeroed" 0. spec.ac_mag
      | _ -> ())
    (Netlist.devices z);
  match Netlist.find_device z "V1" with
  | Some (Netlist.Vsource { spec; _ }) -> check_close "dc kept" 5. spec.dc
  | _ -> Alcotest.fail "V1 missing"

let test_probe_attach_remove () =
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "n1" "0" 1e3 in
  let probed = Transform.with_ac_current_probe c "n1" in
  (match Netlist.find_device probed Transform.probe_name with
   | Some (Netlist.Isource { nneg; spec; _ }) ->
     Alcotest.(check string) "probe target" "n1" nneg;
     check_close "probe magnitude" 1. spec.ac_mag
   | _ -> Alcotest.fail "probe missing");
  let removed = Transform.remove_probe probed in
  Alcotest.(check int) "restored device count" 1
    (List.length (Netlist.devices removed))

let test_split_terminal () =
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "a" "b" 1e3 in
  let c = Netlist.resistor c "R2" "b" "0" 1e3 in
  let c' = Transform.split_terminal c ~device:"R2" ~terminal:0
             ~new_node:"bx" in
  (match Netlist.find_device c' "R2" with
   | Some (Netlist.Resistor { n1; n2; _ }) ->
     Alcotest.(check string) "moved" "bx" n1;
     Alcotest.(check string) "other kept" "0" n2
   | _ -> Alcotest.fail "R2 missing");
  (* R1 must keep its terminal on the original net. *)
  match Netlist.find_device c' "R1" with
  | Some (Netlist.Resistor { n2; _ }) ->
    Alcotest.(check string) "upstream untouched" "b" n2
  | _ -> Alcotest.fail "R1 missing"

let test_split_terminal_repeated_nets () =
  (* A device with both terminals on the same net: only the selected one
     moves. *)
  let c = Netlist.empty () in
  let c = Netlist.resistor c "R1" "x" "x" 1e3 in
  let c' = Transform.split_terminal c ~device:"R1" ~terminal:1
             ~new_node:"y" in
  match Netlist.find_device c' "R1" with
  | Some (Netlist.Resistor { n1; n2; _ }) ->
    Alcotest.(check string) "terminal 0 kept" "x" n1;
    Alcotest.(check string) "terminal 1 moved" "y" n2
  | _ -> Alcotest.fail "R1 missing"

let test_insert_series_vsource () =
  let c = Netlist.empty () in
  let c = Netlist.vsource c "V1" "in" "0" (Netlist.dc_source 1.) in
  let c = Netlist.resistor c "R1" "in" "out" 1e3 in
  let c = Netlist.resistor c "R2" "out" "0" 1e3 in
  let c', nn =
    Transform.insert_series_vsource c ~device:"R2" ~terminal:0
      ~vname:"vamm" ~spec:(Netlist.dc_source 0.)
  in
  (* The circuit must still solve and the ammeter read the R2 current. *)
  let op = Engine.Dcop.solve (Engine.Mna.compile c') in
  check_close ~tol:1e-6 "ammeter current" 0.5e-3
    (Engine.Dcop.branch_current op "vamm");
  Alcotest.(check bool) "fresh node name returned" true (nn <> "out")

(* The reader must never escape with anything but Parse_error on random
   input: fuzz with printable garbage and with mutations of a real deck. *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser raises only Parse_error" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 77 |] in
      let garbage () =
        String.init
          (Random.State.int st 200)
          (fun _ ->
            let c = Random.State.int st 96 in
            if c = 95 then '\n' else Char.chr (32 + c))
      in
      let mutated () =
        let base = Bytes.of_string sample_netlist in
        for _ = 0 to Random.State.int st 8 do
          let k = Random.State.int st (Bytes.length base) in
          Bytes.set base k (Char.chr (32 + Random.State.int st 95))
        done;
        Bytes.to_string base
      in
      let text = if Random.State.bool st then garbage () else mutated () in
      match Parser.parse_string text with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception _ -> false)

(* Every shipped example deck must parse, pass the structural checks and
   solve its operating point. The decks are dune deps copied next to the
   test tree. *)
let test_shipped_decks () =
  let dir = "../circuits" in
  let decks =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sp")
    |> List.sort compare
  in
  Alcotest.(check bool) "decks found" true (List.length decks >= 5);
  List.iter
    (fun f ->
      let c = Parser.parse_file (Filename.concat dir f) in
      Alcotest.(check (list string)) (f ^ " structurally clean") []
        (List.map (Format.asprintf "%a" Topology.pp_issue)
           (Topology.check c));
      let op = Engine.Dcop.solve (Engine.Mna.compile c) in
      ignore op)
    decks

let () =
  Alcotest.run "circuit"
    [ ("expr",
       [ Alcotest.test_case "arithmetic" `Quick test_expr_basic;
         Alcotest.test_case "environment" `Quick test_expr_env;
         Alcotest.test_case "errors" `Quick test_expr_errors ]);
      ("netlist",
       [ Alcotest.test_case "duplicate names" `Quick test_builder_duplicate;
         Alcotest.test_case "node names" `Quick test_node_names ]);
      ("parser",
       [ Alcotest.test_case "basic deck" `Quick test_parse_basic;
         Alcotest.test_case "continuation lines" `Quick
           test_parse_continuation;
         Alcotest.test_case "source waveforms" `Quick test_parse_sources;
         Alcotest.test_case "subckt flattening" `Quick test_parse_subckt;
         Alcotest.test_case "print/parse roundtrip" `Quick
           test_parse_roundtrip;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "K mutual card" `Quick test_parse_mutual;
         Alcotest.test_case "resistor TC" `Quick test_resistor_tc;
         Alcotest.test_case ".options card" `Quick test_parse_options;
         Alcotest.test_case ".include" `Quick test_parse_include;
         Alcotest.test_case ".include expansion" `Quick
           test_expand_includes ]);
      ( "parser-props",
        List.map QCheck_alcotest.to_alcotest [ prop_parser_total ] );
      ("decks",
       [ Alcotest.test_case "shipped decks solve" `Quick
           test_shipped_decks ]);
      ("topology",
       [ Alcotest.test_case "checks" `Quick test_topology_checks;
         Alcotest.test_case "no ground" `Quick test_no_ground ]);
      ("transform",
       [ Alcotest.test_case "zero AC sources" `Quick test_zero_ac;
         Alcotest.test_case "probe attach/remove" `Quick
           test_probe_attach_remove;
         Alcotest.test_case "split terminal" `Quick test_split_terminal;
         Alcotest.test_case "split with repeated nets" `Quick
           test_split_terminal_repeated_nets;
         Alcotest.test_case "series ammeter" `Quick
           test_insert_series_vsource ]) ]
