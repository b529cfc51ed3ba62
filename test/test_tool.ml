(* The tool layer: sessions, OCEAN scripting, calculator, jobs, corners,
   diagnostics. *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- session ---------- *)

let test_session_basics () =
  let s = Tool.Session.create ~name:"t" () in
  let s2 = Tool.Session.create () in
  Alcotest.(check bool) "unique ids" true
    (Tool.Session.id s <> Tool.Session.id s2);
  Tool.Session.set_design_variable s "a" 1.;
  Tool.Session.set_design_variable s "b" 2.;
  Tool.Session.set_design_variable s "a" 3.;
  Alcotest.(check (list (pair string (float 0.)))) "vars deduplicated"
    [ ("b", 2.); ("a", 3.) ]
    (Tool.Session.design_variables s)

let test_session_state_roundtrip () =
  let s = Tool.Session.create () in
  Tool.Session.set_simulator s "spectre";
  Tool.Session.set_temp s 85.;
  Tool.Session.set_scale s 2.5;
  Tool.Session.set_design_variable s "rload" 4.7e3;
  Tool.Session.add_analysis s
    (Tool.Session.Ac (Numerics.Sweep.decade 10. 1e6 25));
  Tool.Session.add_analysis s (Tool.Session.Stab_single "out");
  Tool.Session.add_analysis s (Tool.Session.Tran { tstop = 1e-3; tstep = 1e-6 });
  Tool.Session.add_analysis s
    (Tool.Session.Noise { sweep = Numerics.Sweep.decade 1e2 1e7 15;
                          output = "out" });
  Tool.Session.add_analysis s Tool.Session.Poles;
  let path = Filename.temp_file "session" ".state" in
  Tool.Session.save_state s path;
  let s2 = Tool.Session.create () in
  Tool.Session.load_state s2 path;
  Sys.remove path;
  Alcotest.(check string) "simulator" "spectre" (Tool.Session.simulator s2);
  check_close "temp" 85. (Tool.Session.temp s2);
  check_close "scale" 2.5 (Tool.Session.scale s2);
  check_close "variable" 4.7e3
    (List.assoc "rload" (Tool.Session.design_variables s2));
  Alcotest.(check int) "analyses count" 5
    (List.length (Tool.Session.analyses s2));
  match Tool.Session.analyses s2 with
  | [ Tool.Session.Ac _; Tool.Session.Stab_single "out";
      Tool.Session.Tran { tstop; tstep };
      Tool.Session.Noise { output = "out"; _ }; Tool.Session.Poles ] ->
    check_close "tstop" 1e-3 tstop;
    check_close "tstep" 1e-6 tstep
  | _ -> Alcotest.fail "analyses not restored in order"

(* A corrupt integer field (points-per-decade, linear point count) used
   to escape [load_state] as a bare [Failure "int_of_string"] — no file,
   no line. Every analysis form carrying an integer must now fail with
   the same located message the float fields always produced. *)
let test_session_bad_int_located () =
  let load_line line =
    let path = Filename.temp_file "session" ".state" in
    let oc = open_out path in
    output_string oc (line ^ "\n");
    close_out oc;
    let s = Tool.Session.create () in
    let outcome =
      match Tool.Session.load_state s path with
      | () -> None
      | exception Failure msg -> Some msg
    in
    Sys.remove path;
    outcome
  in
  List.iter
    (fun line ->
      match load_line line with
      | None -> Alcotest.failf "corrupt state line %S accepted" line
      | Some msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names the state file" line)
          true (contains msg "state file");
        Alcotest.(check bool)
          (Printf.sprintf "%S names the line" line)
          true (contains msg "line 1");
        Alcotest.(check bool)
          (Printf.sprintf "%S names the bad integer" line)
          true (contains msg "bad integer"))
    [ "analysis ac dec 1e3 1e9 bogus";
      "analysis ac lin 1e3 1e9 2.5";
      "analysis noise out dec 1e3 1e9 -" ];
  (* The valid spellings still parse. *)
  let path = Filename.temp_file "session" ".state" in
  let oc = open_out path in
  output_string oc "analysis ac dec 1e3 1e9 30\nanalysis ac lin 1 10 5\n";
  close_out oc;
  let s = Tool.Session.create () in
  Tool.Session.load_state s path;
  Sys.remove path;
  Alcotest.(check int) "valid integers accepted" 2
    (List.length (Tool.Session.analyses s))

(* ---------- ocean ---------- *)

let deck = {|divider bench
.param rtop=1k
V1 in 0 DC 10 AC 1
R1 in out {rtop}
R2 out 0 {rbot}
.end|}

let test_ocean_design_text_with_vars () =
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design_text s deck;
  Tool.Ocean.des_var s "rbot" 3e3;
  Tool.Ocean.analysis s Tool.Session.Op;
  let r = Tool.Ocean.run s in
  check_close "divider with desVar" 7.5 (Tool.Ocean.vdc r "out");
  (* Changing the variable and re-running re-elaborates. *)
  Tool.Ocean.des_var s "rbot" 1e3;
  let r2 = Tool.Ocean.run s in
  check_close "after desVar change" 5. (Tool.Ocean.vdc r2 "out")

let test_ocean_analyses () =
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design s (Workloads.Filters.parallel_rlc ());
  Tool.Ocean.analysis s
    (Tool.Session.Ac (Numerics.Sweep.decade 1e5 1e8 10));
  Tool.Ocean.analysis s (Tool.Session.Stab_single "n");
  let r = Tool.Ocean.run s in
  Alcotest.(check bool) "ac present" true (r.Tool.Ocean.ac <> None);
  Alcotest.(check int) "one stab result" 1 (List.length r.Tool.Ocean.stab);
  let report = Tool.Ocean.stab_report r in
  Alcotest.(check bool) "report built" true (contains report "Loop at")

let test_ocean_directives_fallback () =
  (* With no explicit analyses, directive cards in the deck drive the run. *)
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design_text s
    "bench\nV1 in 0 DC 2 AC 1\nR1 in out 1k\nR2 out 0 1k\n.op\n.ac dec 5 1 1meg\n.end\n";
  let r = Tool.Ocean.run s in
  check_close "op from directive" 1. (Tool.Ocean.vdc r "out");
  Alcotest.(check bool) "ac from directive" true (r.Tool.Ocean.ac <> None)

let test_ocean_temperature () =
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design s (Workloads.Bias_zero_tc.cell ~temp_c:85. ());
  Tool.Ocean.temperature s 85.;
  Tool.Ocean.analysis s Tool.Session.Op;
  let r = Tool.Ocean.run s in
  Alcotest.(check bool) "elaborated at 85C" true
    (Circuit.Netlist.temp_celsius r.Tool.Ocean.elaborated = 85.)

(* ---------- calculator ---------- *)

let test_calculator_ops () =
  let circ = Workloads.Filters.rc_lowpass () in
  let fc = Workloads.Filters.rc_lowpass_pole () in
  let ac =
    Engine.Ac.run ~sweep:(Numerics.Sweep.decade (fc /. 100.) (fc *. 100.) 40)
      circ
  in
  let w = Tool.Calculator.Freq (Engine.Ac.v ac "out") in
  check_close ~tol:1e-3 "db20 at fc"
    (-20. *. log10 (sqrt 2.))
    (Tool.Calculator.(value_at (db20 w) fc));
  check_close ~tol:1e-2 "phase at fc" (-45.)
    (Tool.Calculator.(value_at (phase_deg w) fc));
  (* -3 dB crossing of |H| is at fc. *)
  (match Tool.Calculator.cross (Tool.Calculator.mag w) (1. /. sqrt 2.) with
   | Some f -> check_close ~tol:1e-2 "crossing" fc f
   | None -> Alcotest.fail "no crossing");
  Alcotest.(check bool) "unknown op rejected" true
    (try ignore (Tool.Calculator.apply "nosuch" w); false
     with Invalid_argument _ -> true)

let test_calculator_stab_chain () =
  (* apply "stab" on the tank response = the analysis plot. *)
  let circ = Workloads.Filters.parallel_rlc () in
  let probe = Stability.Probe.prepare circ in
  let sweep = Numerics.Sweep.decade 1e5 1e8 100 in
  let resp = Stability.Probe.response probe ~sweep "n" in
  let via_calc = Tool.Calculator.apply "stab" (Tool.Calculator.Freq resp) in
  let fn, zeta = Workloads.Filters.parallel_rlc_theory () in
  check_close ~tol:3e-2 "stab op finds the peak"
    (Control.Second_order.performance_index zeta)
    (Tool.Calculator.value_at via_calc fn)

(* ---------- html report ---------- *)

let test_html_reports () =
  let circ = Workloads.Filters.parallel_rlc () in
  let probe = Stability.Probe.prepare circ in
  let results = Stability.Analysis.all_nodes_prepared probe in
  let plots = Stability.Analysis.coarse_plots probe in
  let html = Tool.Html_report.all_nodes ~plots circ results in
  Alcotest.(check bool) "has loop table" true (contains html "Loops (Table 2");
  Alcotest.(check bool) "has svg" true (contains html "<svg");
  Alcotest.(check bool) "has netlist" true (contains html "R1 n 0 100");
  let r = List.hd results in
  let single =
    Tool.Html_report.single_node circ r (List.assoc r.node (plots [ r.node ]))
  in
  Alcotest.(check bool) "single has peaks table" true
    (contains single "Detected peaks");
  Alcotest.(check bool) "single has two plots" true
    (let rec count i acc =
       if i + 4 > String.length single then acc
       else if String.sub single i 4 = "<svg" then count (i + 4) (acc + 1)
       else count (i + 1) acc
     in
     count 0 0 = 2)

(* ---------- opstore ---------- *)

let test_opstore_roundtrip () =
  let circ = Workloads.Opamp_bjt.buffer () in
  let op = Engine.Dcop.solve (Engine.Mna.compile circ) in
  let path = Filename.temp_file "op" ".txt" in
  Tool.Opstore.save op path;
  (* Strip the hand-written nodesets and rely on the stored point. *)
  let reloaded = Tool.Opstore.load_nodeset circ path in
  Sys.remove path;
  let op2 = Engine.Dcop.solve (Engine.Mna.compile reloaded) in
  List.iter
    (fun n ->
      check_close ~tol:1e-6
        (Printf.sprintf "V(%s) reproduced" n)
        (Engine.Dcop.node_v op n)
        (Engine.Dcop.node_v op2 n))
    [ "out"; "o1"; "tail"; "nb" ];
  (* Direct Newton from the stored point, no homotopy needed. *)
  Alcotest.(check bool) "direct strategy" true
    (op2.Engine.Dcop.strategy = Engine.Dcop.Direct)

let test_calculator_group_delay () =
  (* One-pole RC: group delay at DC equals RC. *)
  let r = 1e3 and c = 1e-9 in
  let circ = Workloads.Filters.rc_lowpass ~r ~c () in
  let fc = Workloads.Filters.rc_lowpass_pole ~r ~c () in
  let ac =
    Engine.Ac.run ~sweep:(Numerics.Sweep.decade (fc /. 1e3) (fc *. 10.) 40)
      circ
  in
  let w = Tool.Calculator.Freq (Engine.Ac.v ac "out") in
  check_close ~tol:1e-3 "tg(0) = RC" (r *. c)
    (Tool.Calculator.(value_at (group_delay w) (fc /. 500.)));
  (* At the pole the delay halves. *)
  check_close ~tol:2e-2 "tg(fc) = RC/2" (r *. c /. 2.)
    (Tool.Calculator.(value_at (group_delay w) fc));
  (* real/imag split reassembles the magnitude. *)
  let re = Tool.Calculator.(value_at (apply "real" w) fc) in
  let im = Tool.Calculator.(value_at (apply "imag" w) fc) in
  check_close ~tol:1e-6 "sqrt(re^2+im^2) = |H(fc)|" (1. /. sqrt 2.)
    (sqrt ((re *. re) +. (im *. im)))

(* ---------- jobs ---------- *)

let test_jobs_sequential () =
  let outcomes =
    Tool.Job.run_all
      [ ("a", fun () -> 1); ("b", fun () -> 2); ("c", fun () -> 3) ]
  in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ]
    (List.map (fun (_, r) -> Result.get_ok r) outcomes)

let test_jobs_parallel_order_and_errors () =
  let jobs =
    List.init 12 (fun i ->
        ( Printf.sprintf "j%d" i,
          fun () -> if i = 7 then failwith "boom" else i * i ))
  in
  let outcomes = Tool.Job.run_all ~parallel:`Par jobs in
  Alcotest.(check int) "all came back" 12 (List.length outcomes);
  List.iteri
    (fun i (name, result) ->
      Alcotest.(check string) "submission order"
        (Printf.sprintf "j%d" i) name;
      match result with
      | Ok v -> Alcotest.(check int) "value" (i * i) v
      | Error _ -> Alcotest.(check int) "only job 7 fails" 7 i)
    outcomes

let test_jobs_parallel_simulations () =
  (* Real simulations across domains: per-temperature op of the bias cell. *)
  let temps = [ 0.; 27.; 85. ] in
  let jobs =
    List.map
      (fun t ->
        ( Printf.sprintf "%gC" t,
          fun () -> Workloads.Bias_zero_tc.reference_current ~temp_c:t () ))
      temps
  in
  let outcomes = Tool.Job.run_all ~parallel:`Par jobs in
  let currents = List.map (fun (_, r) -> Result.get_ok r) outcomes in
  List.iter
    (fun i -> Alcotest.(check bool) "plausible" true (i > 20e-6 && i < 200e-6))
    currents

(* ---------- corners ---------- *)

let test_corners_apply () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let fast = Tool.Corners.apply Tool.Corners.fast circ in
  Alcotest.(check bool) "temp changed" true
    (Circuit.Netlist.temp_celsius fast = -40.);
  (match Circuit.Netlist.find_model fast "MN" with
   | Some m ->
     check_close "kp overridden" 120e-6
       (Circuit.Netlist.model_param m "kp" ~default:0.)
   | None -> Alcotest.fail "model MN missing");
  Alcotest.(check bool) "unknown model rejected" true
    (try
       ignore
         (Tool.Corners.apply
            (Tool.Corners.make ~models:[ ("NOPE", [ ("x", 1.) ]) ] "bad")
            circ);
       false
     with Invalid_argument _ -> true)

let test_corners_across () =
  (* Corners override transistor models, so the circuit must carry them. *)
  let circ = Workloads.Follower.emitter_follower () in
  let corners = [ Tool.Corners.typical; Tool.Corners.fast ] in
  let results =
    Tool.Corners.across corners circ (fun c ->
        let op = Engine.Dcop.solve (Engine.Mna.compile c) in
        Engine.Dcop.node_v op "out")
  in
  Alcotest.(check int) "both corners" 2 (List.length results);
  List.iter
    (fun (_, r) -> Alcotest.(check bool) "ran" true (Result.is_ok r))
    results

let test_temp_sweep () =
  let circ = Workloads.Filters.rc_lowpass () in
  let results =
    Tool.Corners.temp_sweep ~temps:[ 0.; 27.; 100. ] circ (fun c ->
        Circuit.Netlist.temp_celsius c)
  in
  Alcotest.(check (list (float 0.))) "temps propagated" [ 0.; 27.; 100. ]
    (List.map (fun (_, r) -> Result.get_ok r) results)

(* ---------- diagnostics ---------- *)

let test_diagnostics_guard () =
  let dir = Filename.get_temp_dir_name () in
  (match
     Tool.Diagnostics.guard ~operation:"ok op" ~report_dir:dir (fun () -> 42)
   with
   | Ok v -> Alcotest.(check int) "pass-through" 42 v
   | Error _ -> Alcotest.fail "spurious report");
  let s = Tool.Session.create ~name:"diag" () in
  Tool.Session.set_design_variable s "x" 1.;
  match
    Tool.Diagnostics.guard ~session:s ~operation:"failing op"
      ~report_dir:dir (fun () -> failwith "expected failure")
  with
  | Ok _ -> Alcotest.fail "should have failed"
  | Error r ->
    Alcotest.(check string) "operation recorded" "failing op"
      r.Tool.Diagnostics.operation;
    Alcotest.(check bool) "error captured" true
      (contains r.Tool.Diagnostics.error "expected failure");
    let text = Tool.Diagnostics.to_text r in
    Alcotest.(check bool) "session summarised" true (contains text "x=1")

(* ---------- sha256 ---------- *)

let test_sha256_vectors () =
  (* FIPS 180-4 test vectors. *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Tool.Sha256.digest "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Tool.Sha256.digest "abc");
  Alcotest.(check string) "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Tool.Sha256.digest
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Tool.Sha256.digest (String.make 1_000_000 'a'))

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let open Tool.Json in
  let doc =
    Obj
      [ ("s", Str "he\"llo\n"); ("n", Num 1.5); ("i", Num 42.);
        ("t", Bool true); ("z", Null);
        ("a", Arr [ Num 1.; Num (-2.5e-3); Str "x" ]) ]
  in
  (* The second input holds two members pre-rendered, the way the serve
     daemon splices a cached manifest: it must print the same bytes and
     parse back to the plain value. *)
  let spliced =
    match doc with
    | Obj fields ->
      Obj
        (List.map
           (fun (k, v) ->
             if k = "s" || k = "a" then (k, Rendered (to_string v)) else (k, v))
           fields)
    | _ -> assert false
  in
  Alcotest.(check string) "spliced prints the same bytes" (to_string doc)
    (to_string spliced);
  List.iter
    (fun input ->
      match of_string (to_string input) with
      | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
      | Ok back ->
        Alcotest.(check bool) "roundtrip equal" true (back = doc);
        (match member "a" back with
         | Some (Arr l) -> Alcotest.(check int) "array length" 3 (List.length l)
         | _ -> Alcotest.fail "member lookup");
        check_close "float accessor" 1.5
          (Option.get (Option.bind (member "n" back) to_float)))
    [ doc; spliced ]

let test_json_errors () =
  let bad s =
    match Tool.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated" true (bad "{\"a\": 1");
  Alcotest.(check bool) "trailing garbage" true (bad "1 2");
  Alcotest.(check bool) "bare word" true (bad "nope");
  Alcotest.(check bool) "non-finite rendered as null" true
    (Tool.Json.to_string (Tool.Json.Num Float.nan) = "null")

(* \u escapes: BMP code points decode to UTF-8, and non-BMP code points
   arrive as UTF-16 surrogate pairs (RFC 8259) that must combine into
   ONE code point. The decoder used to emit each surrogate half as its
   own 3-byte sequence — six bytes of invalid UTF-8 per emoji. *)
let test_json_unicode_escapes () =
  let dec s =
    match Tool.Json.of_string s with
    | Ok (Tool.Json.Str v) -> v
    | Ok _ -> Alcotest.failf "%S parsed to a non-string" s
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  Alcotest.(check string) "ASCII escape" "A" (dec "\"\\u0041\"");
  Alcotest.(check string) "2-byte code point" "\xc3\xa9" (dec "\"\\u00e9\"");
  Alcotest.(check string) "3-byte code point" "\xe2\x84\xa6"
    (dec "\"\\u2126\"");
  Alcotest.(check string) "surrogate pair is one 4-byte code point"
    "\xf0\x9f\x98\x80"
    (dec "\"\\ud83d\\ude00\"");
  Alcotest.(check string) "pair mid-string, neighbours intact" "a\xf0\x90\x80\x80b"
    (dec "\"a\\ud800\\udc00b\"");
  (* The encoder passes raw UTF-8 bytes through untouched, so a decoded
     pair survives a full round trip. *)
  let doc = Tool.Json.Str "\xf0\x9f\x98\x80 ok" in
  (match Tool.Json.of_string (Tool.Json.to_string doc) with
   | Ok back -> Alcotest.(check bool) "non-BMP round trip" true (back = doc)
   | Error e -> Alcotest.failf "round trip rejected: %s" e);
  let rejected s =
    match Tool.Json.of_string s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the surrogate" s)
        true (contains e "unpaired surrogate")
  in
  rejected "\"\\ud83d\"";            (* high surrogate at end of string *)
  rejected "\"\\ud83dx\"";           (* high followed by a plain char *)
  rejected "\"\\ud83d\\n\"";         (* high followed by another escape *)
  rejected "\"\\ud83d\\u0041\"";     (* high followed by a non-low escape *)
  rejected "\"\\ud800\\ud800\"";     (* high followed by another high *)
  rejected "\"\\ude00\""             (* lone low surrogate *)

(* The decoder as it stood before it became an index-based scanner,
   kept verbatim as the oracle the scanner must agree with: same values,
   same error messages, byte positions included. *)
module Reference_json = struct
  open Tool.Json

  exception Parse_error of string

  type state = { src : string; mutable pos : int }

  let fail st msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos]
    else None

  let advance st = st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some d when d = c -> advance st
    | _ -> fail st (Printf.sprintf "expected %C" c)

  let parse_literal st word value =
    let n = String.length word in
    if st.pos + n <= String.length st.src
       && String.sub st.src st.pos n = word then begin
      st.pos <- st.pos + n;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let parse_string_raw st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' -> advance st
      | Some '\\' ->
        advance st;
        (match peek st with
         | Some '"' -> Buffer.add_char buf '"'; advance st; go ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance st; go ()
         | Some '/' -> Buffer.add_char buf '/'; advance st; go ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance st; go ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance st; go ()
         | Some 't' -> Buffer.add_char buf '\t'; advance st; go ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance st; go ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance st; go ()
         | Some 'u' ->
           advance st;
           let hex4 () =
             if st.pos + 4 > String.length st.src then
               fail st "short \\u escape";
             let hex = String.sub st.src st.pos 4 in
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail st "bad \\u escape"
             in
             st.pos <- st.pos + 4;
             code
           in
           let code = hex4 () in
           let code =
             if code >= 0xd800 && code <= 0xdbff then begin
               if
                 st.pos + 2 <= String.length st.src
                 && st.src.[st.pos] = '\\'
                 && st.src.[st.pos + 1] = 'u'
               then begin
                 st.pos <- st.pos + 2;
                 let low = hex4 () in
                 if low >= 0xdc00 && low <= 0xdfff then
                   0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00)
                 else fail st "unpaired surrogate in \\u escape"
               end
               else fail st "unpaired surrogate in \\u escape"
             end
             else if code >= 0xdc00 && code <= 0xdfff then
               fail st "unpaired surrogate in \\u escape"
             else code
           in
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
           end
           else if code < 0x10000 then begin
             Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
             Buffer.add_char buf
               (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
             Buffer.add_char buf
               (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
             Buffer.add_char buf
               (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
           end;
           go ()
         | _ -> fail st "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
    in
    go ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek st with Some c -> is_num_char c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> fail st (Printf.sprintf "bad number %S" text)

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin advance st; Obj [] end
      else begin
        let rec fields acc =
          skip_ws st;
          let key = parse_string_raw st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; fields ((key, v) :: acc)
          | Some '}' -> advance st; List.rev ((key, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin advance st; Arr [] end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; items (v :: acc)
          | Some ']' -> advance st; List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '"' -> Str (parse_string_raw st)
    | Some 't' -> parse_literal st "true" (Bool true)
    | Some 'f' -> parse_literal st "false" (Bool false)
    | Some 'n' -> parse_literal st "null" Null
    | Some ('-' | '0' .. '9') -> parse_number st
    | Some c -> fail st (Printf.sprintf "unexpected %C" c)

  let of_string s =
    let st = { src = s; pos = 0 } in
    match parse_value st with
    | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
      else Ok v
    | exception Parse_error msg -> Error msg
end

(* Structural equality that tells numbers apart by their bits, so a
   decoder that lost a sign of zero would not pass as equal. *)
let rec json_same (a : Tool.Json.t) (b : Tool.Json.t) =
  match (a, b) with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr xs, Arr ys -> List.equal json_same xs ys
  | Obj xs, Obj ys ->
    List.equal (fun (k, x) (k', y) -> String.equal k k' && json_same x y) xs ys
  | _ -> a = b

(* Random JSON documents for the oracle comparison. Values are printed
   either by [to_string] or by a speller that picks, per code point,
   between the raw bytes and every escape the grammar allows (\u in
   either case, surrogate pairs for non-BMP code points), puts control
   bytes in raw, spells numbers with exponents, and scatters
   whitespace. A third of the documents are then cut short and a third
   have one byte replaced, mostly by a byte the grammar cares about. *)
let json_text_gen =
  let open QCheck.Gen in
  let code_point =
    frequency
      [ (6, int_range 0x20 0x7e); (2, int_range 0 0x1f);
        (1, oneofl [ 0x22; 0x5c; 0x2f; 0x7f ]);
        (1, int_range 0x80 0x7ff); (1, int_range 0x800 0xd7ff);
        (1, int_range 0xe000 0xffff); (1, int_range 0x10000 0x10ffff) ]
  in
  let utf8 cps =
    let b = Buffer.create 16 in
    List.iter (fun c -> Buffer.add_utf_8_uchar b (Uchar.of_int c)) cps;
    Buffer.contents b
  in
  let float_gen =
    frequency
      [ (2, map float_of_int (int_range (-1000) 1000));
        (2, float_range (-1e6) 1e6);
        (1, map (fun e -> Float.pow 10. (float_of_int e)) (int_range (-320) 310));
        (1, oneofl [ 0.; -0.; 1e300; -1e-300; 5e-324; 1e15; 123456789012345678. ]) ]
  in
  let value =
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
        let leaf =
          frequency
            [ (1, return (`Null));
              (1, map (fun b -> `Bool b) bool);
              (2, map (fun f -> `Num f) float_gen);
              (3, map (fun cps -> `Str cps) (list_size (int_range 0 8) code_point)) ]
        in
        if depth = 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1, map (fun l -> `Arr l) (list_size (int_range 0 4) (self (depth - 1))));
              (1, map (fun l -> `Obj l)
                    (list_size (int_range 0 4)
                       (pair (list_size (int_range 0 6) code_point) (self (depth - 1))))) ])
  in
  let rec to_json = function
    | `Null -> Tool.Json.Null
    | `Bool b -> Tool.Json.Bool b
    | `Num f -> Tool.Json.Num f
    | `Str cps -> Tool.Json.Str (utf8 cps)
    | `Arr l -> Tool.Json.Arr (List.map to_json l)
    | `Obj l -> Tool.Json.Obj (List.map (fun (k, v) -> (utf8 k, to_json v)) l)
  in
  let spell v st =
    let b = Buffer.create 64 in
    let ws () =
      if Random.State.int st 4 = 0 then
        Buffer.add_string b
          (List.nth [ " "; "\t"; "\n"; "\r\n "; "  " ] (Random.State.int st 5))
    in
    let hex4 c =
      let h = Printf.sprintf "%04x" c in
      Buffer.add_string b
        (if Random.State.bool st then String.uppercase_ascii h else h)
    in
    let code_point c =
      let raw () = Buffer.add_utf_8_uchar b (Uchar.of_int c) in
      let u () =
        Buffer.add_string b "\\u";
        if c >= 0x10000 then begin
          let c' = c - 0x10000 in
          hex4 (0xd800 lor (c' lsr 10));
          Buffer.add_string b "\\u";
          hex4 (0xdc00 lor (c' land 0x3ff))
        end
        else hex4 c
      in
      match (c, Random.State.int st 3) with
      | (0x22 | 0x5c), 0 -> u ()
      | 0x22, _ -> Buffer.add_string b "\\\""
      | 0x5c, _ -> Buffer.add_string b "\\\\"
      | 0x2f, 0 -> Buffer.add_string b "\\/"
      | 0x0a, 0 -> Buffer.add_string b "\\n"
      | 0x0d, 0 -> Buffer.add_string b "\\r"
      | 0x09, 0 -> Buffer.add_string b "\\t"
      | 0x08, 0 -> Buffer.add_string b "\\b"
      | 0x0c, 0 -> Buffer.add_string b "\\f"
      | _, 1 -> u ()
      | _ -> raw ()
    in
    let str cps =
      Buffer.add_char b '"';
      List.iter code_point cps;
      Buffer.add_char b '"'
    in
    let num f =
      let forms = [| "%.17g"; "%e"; "%E"; "%.3e"; "%g"; "%.0f" |] in
      let text =
        Printf.sprintf
          (Scanf.format_from_string
             forms.(Random.State.int st (Array.length forms)) "%f")
          f
      in
      Buffer.add_string b text
    in
    let rec go v =
      ws ();
      (match v with
       | `Null -> Buffer.add_string b "null"
       | `Bool t -> Buffer.add_string b (if t then "true" else "false")
       | `Num f -> num f
       | `Str cps -> str cps
       | `Arr l ->
         Buffer.add_char b '[';
         List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; go v) l;
         ws ();
         Buffer.add_char b ']'
       | `Obj l ->
         Buffer.add_char b '{';
         List.iteri
           (fun i (k, v) ->
             if i > 0 then Buffer.add_char b ',';
             ws ();
             str k;
             ws ();
             Buffer.add_char b ':';
             go v)
           l;
         ws ();
         Buffer.add_char b '}');
      ws ()
    in
    go v;
    Buffer.contents b
  in
  let text =
    value >>= fun v ->
    frequency
      [ (1, return (Tool.Json.to_string (to_json v))); (2, spell v) ]
  in
  let interesting = "\"\\/bfnrtu0123456789abcdefABCDEF_-+.eE{}[],: \t\r\nxz" in
  let cut s = map (fun n -> String.sub s 0 n) (int_range 0 (String.length s)) in
  let mutate s =
    if s = "" then return s
    else
      map2
        (fun i c ->
          let b = Bytes.of_string s in
          Bytes.set b i c;
          Bytes.to_string b)
        (int_range 0 (String.length s - 1))
        (frequency
           [ (4, map (String.get interesting)
                    (int_range 0 (String.length interesting - 1)));
             (1, char) ])
  in
  text >>= fun s ->
  frequency [ (1, return s); (1, cut s); (1, mutate s) ]

let prop_json_matches_reference =
  QCheck.Test.make ~name:"json decoder agrees with the reference" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") json_text_gen)
    (fun s ->
      match (Tool.Json.of_string s, Reference_json.of_string s) with
      | Ok a, Ok b -> json_same a b
      | Error e, Error e' ->
        e = e' || QCheck.Test.fail_reportf "errors differ: %S vs %S" e e'
      | Ok _, Error e -> QCheck.Test.fail_reportf "reference rejects: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "scanner rejects: %s" e)

(* The op-amp all-nodes request the serve daemon reads, spelled as
   clients send it (the deck inline, so one 1.1 KB string with an
   escape per line). The reference decoder allocated about 3,200 minor
   words for it, one [Some c] per byte looked at. *)
let test_json_request_alloc () =
  let line =
    Tool.Json.to_string
      (Tool.Json.Obj
         [ ("cmd", Tool.Json.Str "analyze");
           ("name", Tool.Json.Str "opamp_2mhz_buffer.sp");
           ("deck_text",
            Tool.Json.Str
              (Circuit.Netlist.to_spice (Workloads.Opamp_2mhz.buffer ())));
           ("mode", Tool.Json.Str "all-nodes") ])
  in
  let decode () = Tool.Json.of_string line in
  ignore (decode ());
  let w0 = Gc.minor_words () in
  let r = decode () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "decodes to the reference's value" true
    (match (r, Reference_json.of_string line) with
     | Ok a, Ok b -> json_same a b
     | _ -> false);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for a %d-byte line (at most 1100)" words
       (String.length line))
    true (words <= 1100.)

(* Nesting past [max_depth] is refused where it starts, so a line of
   a million '[' costs one short scan instead of a million stack
   frames. *)
let test_json_nesting_bound () =
  let error s =
    match Tool.Json.of_string s with Ok _ -> None | Error e -> Some e
  in
  let nest n = String.make n '[' ^ String.make n ']' in
  let refused = Some "nesting deeper than 512 at byte 512" in
  Alcotest.(check (option string)) "512 levels parse" None (error (nest 512));
  Alcotest.(check (option string)) "513 levels" refused (error (nest 513));
  Alcotest.(check (option string)) "a million '['" refused
    (error (String.make 1_000_000 '['));
  Alcotest.(check (option string)) "objects count too"
    (Some "nesting deeper than 512 at byte 2560")
    (error (String.concat "" (List.init 600 (fun _ -> "{\"a\":"))))

(* What the daemon echoes from a malformed line: the first "id" member
   whose value parses, found in one pass however the line is broken. *)
let test_json_salvage () =
  let salvage s = Tool.Json.salvage_member "id" s in
  let id = Alcotest.(option string) in
  let str v = Option.bind v Tool.Json.to_str in
  Alcotest.check id "half-written line" (Some "x1")
    (str (salvage "{\"cmd\":\"ping\",\"id\":\"x1\""));
  Alcotest.check id "broken values skipped" (Some "ok")
    (str (salvage "{\"id\":[1,\"id\":{,\"id\":tru,\"id\":\"ok\""));
  Alcotest.check id "key inside a string value" (Some "in")
    (str (salvage "{\"a\":\"b\", \"id\" : \"in\", \"c\":"));
  Alcotest.check id "escaped quotes never close" None
    (str (salvage ("{\"cmd\":\"" ^ String.concat "" (List.init 5000 (fun _ -> "\\\"")))));
  Alcotest.check id "a bad escape in a key" (Some "y")
    (str (salvage "{\"\\q\":1,\"id\":\"y\""));
  Alcotest.check id "no key" None (str (salvage "{\"cmd\":\"ping\""));
  Alcotest.check id "empty" None (str (salvage ""))

(* ---------- manifests ---------- *)

let ladder_results () =
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e6 10 }
  in
  Stability.Analysis.all_nodes ~options (Workloads.Ladder.rc ~sections:4 ())

let build_manifest results =
  Tool.Manifest.build ~deck_file:"ladder.sp"
    ~deck_sha256:(Tool.Sha256.digest "* rc ladder deck text\n")
    ~circ:(Workloads.Ladder.rc ~sections:4 ())
    ~options:[ ("mode", "all-nodes") ] ~results ~wall_s:0.25 ~cpu_s:0.5 ()

let test_manifest_roundtrip () =
  let m = build_manifest (ladder_results ()) in
  Alcotest.(check string) "deck hash matches digest"
    (Tool.Sha256.digest "* rc ladder deck text\n") m.Tool.Manifest.deck_sha256;
  Alcotest.(check bool) "has nodes" true
    (List.length m.Tool.Manifest.nodes > 0);
  match Tool.Manifest.of_json_string (Tool.Manifest.to_json m) with
  | Error e -> Alcotest.failf "manifest did not reload: %s" e
  | Ok back ->
    Alcotest.(check string) "deck file" m.Tool.Manifest.deck_file
      back.Tool.Manifest.deck_file;
    Alcotest.(check string) "sha" m.Tool.Manifest.deck_sha256
      back.Tool.Manifest.deck_sha256;
    Alcotest.(check int) "node count"
      (List.length m.Tool.Manifest.nodes)
      (List.length back.Tool.Manifest.nodes);
    List.iter2
      (fun (a : Tool.Manifest.node_entry) (b : Tool.Manifest.node_entry) ->
        Alcotest.(check string) "node name" a.node b.node;
        Alcotest.(check string) "quality" a.quality b.quality;
        match (a.f_n, b.f_n) with
        | Some x, Some y -> check_close ~tol:1e-12 ("f_n " ^ a.node) x y
        | None, None -> ()
        | _ -> Alcotest.failf "f_n presence mismatch on %s" a.node)
      m.Tool.Manifest.nodes back.Tool.Manifest.nodes;
    Alcotest.(check (list string)) "histogram names"
      (List.map fst m.Tool.Manifest.histograms)
      (List.map fst back.Tool.Manifest.histograms)

(* Replace the first occurrence of [sub] in [s] with [by]. *)
let replace_once s sub by =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_manifest_diff () =
  let results = ladder_results () in
  let a = build_manifest results in
  Alcotest.(check int) "self-diff is empty" 0
    (List.length (Tool.Manifest.diff a a));
  (* Perturb one node's f_n beyond tolerance: must surface as Shifted. *)
  let perturb (e : Tool.Manifest.node_entry) =
    match e.f_n with
    | Some f when e.node = "n2" ->
      { e with Tool.Manifest.f_n = Some (f *. 1.01) }
    | _ -> e
  in
  let b = { a with Tool.Manifest.nodes = List.map perturb a.nodes } in
  let changes = Tool.Manifest.diff a b in
  Alcotest.(check bool) "perturbation detected" true
    (List.exists
       (function
         | Tool.Manifest.Shifted { node = "n2"; field = "f_n"; _ } -> true
         | _ -> false)
       changes);
  (* Within tolerance: no change. *)
  let tiny (e : Tool.Manifest.node_entry) =
    { e with Tool.Manifest.f_n = Option.map (fun f -> f *. (1. +. 1e-5)) e.f_n }
  in
  let c = { a with Tool.Manifest.nodes = List.map tiny a.nodes } in
  Alcotest.(check int) "sub-tolerance drift ignored" 0
    (List.length (Tool.Manifest.diff a c));
  (* Quality downgrade is a change; upgrade is not. *)
  let degrade (e : Tool.Manifest.node_entry) =
    if e.node = "n1" then { e with Tool.Manifest.quality = "suspect" } else e
  in
  let d = { a with Tool.Manifest.nodes = List.map degrade a.nodes } in
  Alcotest.(check bool) "downgrade detected" true
    (List.exists
       (function
         | Tool.Manifest.Downgraded { node = "n1"; to_ = "suspect"; _ } -> true
         | _ -> false)
       (Tool.Manifest.diff a d));
  Alcotest.(check int) "upgrade is not a change" 0
    (List.length (Tool.Manifest.diff d a));
  (* A node losing its dominant peak must surface as Removed_peak. *)
  let strip (e : Tool.Manifest.node_entry) =
    if e.node = "n3" then
      { e with Tool.Manifest.f_n = None; zeta = None;
               phase_margin_deg = None; peak = None }
    else e
  in
  let s = { a with Tool.Manifest.nodes = List.map strip a.nodes } in
  Alcotest.(check bool) "removed peak detected" true
    (List.exists
       (function
         | Tool.Manifest.Removed_peak "n3" -> true
         | _ -> false)
       (Tool.Manifest.diff a s))

let test_manifest_diff_json () =
  let a = build_manifest (ladder_results ()) in
  (* Self-comparison: the JSON must say "agree" with no changes. *)
  let j_ok = Tool.Manifest.diff_json ~a ~b:a (Tool.Manifest.diff a a) in
  Alcotest.(check (option string)) "schema" (Some "acstab-diff/1")
    (Tool.Json.mem_str "schema" j_ok);
  Alcotest.(check (option bool)) "agree" (Some true)
    (Tool.Json.mem_bool "agree" j_ok);
  Alcotest.(check (option bool)) "same deck" (Some true)
    (Tool.Json.mem_bool "same_deck" j_ok);
  Alcotest.(check (option int)) "nodes compared"
    (Some (List.length a.Tool.Manifest.nodes))
    (Tool.Json.mem_int "nodes_compared" j_ok);
  (* Shifted + downgraded + removed must each surface with its kind. *)
  let mutate (e : Tool.Manifest.node_entry) =
    match e.node with
    | "n2" -> { e with Tool.Manifest.f_n = Option.map (fun f -> f *. 1.01) e.f_n }
    | "n1" -> { e with Tool.Manifest.quality = "suspect" }
    | "n3" ->
      { e with Tool.Manifest.f_n = None; zeta = None;
               phase_margin_deg = None; peak = None }
    | _ -> e
  in
  let b = { a with Tool.Manifest.nodes = List.map mutate a.nodes } in
  let changes = Tool.Manifest.diff a b in
  let j = Tool.Manifest.diff_json ~a ~b changes in
  Alcotest.(check (option bool)) "disagree" (Some false)
    (Tool.Json.mem_bool "agree" j);
  let kinds =
    match Option.bind (Tool.Json.member "changes" j) Tool.Json.to_list with
    | Some l -> List.filter_map (Tool.Json.mem_str "kind") l
    | None -> []
  in
  Alcotest.(check int) "one JSON change per diff change"
    (List.length changes) (List.length kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("kind present: " ^ k) true (List.mem k kinds))
    [ "shifted"; "quality_downgraded"; "removed_peak" ];
  (* The document must round-trip through the parser. *)
  match Tool.Json.of_string (Tool.Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diff JSON does not reparse: %s" e

(* ---------- cache + pipeline ---------- *)

let counter_value name =
  match List.assoc_opt name (Obs.Counter.snapshot ()) with
  | Some n -> n
  | None -> 0

let ladder_loaded ?sections () =
  let circ = Workloads.Ladder.rc ?sections () in
  match
    Tool.Pipeline.load ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
      (Tool.Pipeline.Deck_circuit { name = "rc_ladder"; circ })
  with
  | Ok l -> l
  | Error f ->
    Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)

let quick_options =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e3 1e5 5 }

(* The cache contract the serve daemon relies on: a warm repeat of the
   same deck + options performs zero extra DC solves and zero extra
   symbolic analyses, and returns the identical manifest. *)
let test_pipeline_warm_hit () =
  let cache = Tool.Cache.create () in
  let loaded = ladder_loaded () in
  let run () =
    Tool.Pipeline.analyze_exn ~cache ~options:quick_options loaded
      (Tool.Pipeline.All_nodes None)
  in
  let o1 = run () in
  Alcotest.(check bool) "cold is a miss" true (o1.Tool.Pipeline.cache = `Miss);
  let dc = counter_value "dcop.solves"
  and sym = counter_value "acplan.symbolic" in
  let o2 = run () in
  Alcotest.(check bool) "warm is a hit" true (o2.Tool.Pipeline.cache = `Hit);
  Alcotest.(check int) "0 extra DC solves" dc (counter_value "dcop.solves");
  Alcotest.(check int) "0 extra symbolic analyses" sym
    (counter_value "acplan.symbolic");
  Alcotest.(check string) "identical manifest bytes"
    (Tool.Manifest.to_json o1.Tool.Pipeline.manifest)
    (Tool.Manifest.to_json o2.Tool.Pipeline.manifest)

(* The kernel cache family sits one step below [plan]: a warm repeat on
   the [`Kernel] backend compiles zero kernels, and a different request
   shape over the same deck + options (all-nodes, then one node) reuses
   the compiled kernel even though the result key differs. *)
let test_pipeline_kernel_warm () =
  let cache = Tool.Cache.create () in
  let loaded = ladder_loaded () in
  let options =
    { quick_options with Stability.Analysis.backend = `Kernel }
  in
  let analyze target =
    Tool.Pipeline.analyze_exn ~cache ~options loaded target
  in
  let o1 = analyze (Tool.Pipeline.All_nodes None) in
  Alcotest.(check bool) "cold is a miss" true (o1.Tool.Pipeline.cache = `Miss);
  Alcotest.(check bool) "cold run compiled a kernel" true
    (counter_value "kernel.compiles" > 0);
  let compiles = counter_value "kernel.compiles" in
  let o2 = analyze (Tool.Pipeline.All_nodes None) in
  Alcotest.(check bool) "warm is a hit" true (o2.Tool.Pipeline.cache = `Hit);
  Alcotest.(check int) "warm repeat compiles zero kernels" compiles
    (counter_value "kernel.compiles");
  Alcotest.(check string) "identical manifest bytes"
    (Tool.Manifest.to_json o1.Tool.Pipeline.manifest)
    (Tool.Manifest.to_json o2.Tool.Pipeline.manifest);
  (* New result key, same plan key: the kernel family answers. *)
  let o3 = analyze (Tool.Pipeline.Single_node (Workloads.Ladder.last_node 20)) in
  Alcotest.(check bool) "different request is a result miss" true
    (o3.Tool.Pipeline.cache = `Miss);
  Alcotest.(check int) "single-node reuses the compiled kernel" compiles
    (counter_value "kernel.compiles");
  (* The [`Plan] default never touches the kernel family. *)
  let cache' = Tool.Cache.create () in
  ignore
    (Tool.Pipeline.analyze_exn ~cache:cache' ~options:quick_options loaded
       (Tool.Pipeline.All_nodes None));
  let stats = Tool.Cache.stats cache' in
  (match
     List.find_opt (fun fs -> fs.Tool.Cache.family = "kernel") stats
   with
   | Some fs ->
     Alcotest.(check int) "kernel family untouched off-backend" 0
       fs.Tool.Cache.entries
   | None -> Alcotest.fail "kernel family missing from stats")

(* Invalidation is content addressing: a changed option is a different
   result key (but the operating point is reused), an edited deck is a
   different fingerprint (everything recomputes). *)
let test_pipeline_cache_keys () =
  let cache = Tool.Cache.create () in
  let loaded = ladder_loaded () in
  let analyze ~options loaded =
    Tool.Pipeline.analyze_exn ~cache ~options loaded
      (Tool.Pipeline.All_nodes None)
  in
  ignore (analyze ~options:quick_options loaded);
  let dc = counter_value "dcop.solves" in
  let wider =
    { quick_options with
      Stability.Analysis.sweep = Numerics.Sweep.decade 1e3 1e6 5 }
  in
  let o = analyze ~options:wider loaded in
  Alcotest.(check bool) "options change is a miss" true
    (o.Tool.Pipeline.cache = `Miss);
  Alcotest.(check int) "operating point reused across sweep change" dc
    (counter_value "dcop.solves");
  let loaded' = ladder_loaded ~sections:19 () in
  Alcotest.(check bool) "edited deck fingerprints differently" true
    (loaded.Tool.Pipeline.sha256 <> loaded'.Tool.Pipeline.sha256);
  let o' = analyze ~options:quick_options loaded' in
  Alcotest.(check bool) "edited deck is a miss" true
    (o'.Tool.Pipeline.cache = `Miss);
  Alcotest.(check bool) "edited deck re-solves DC" true
    (counter_value "dcop.solves" > dc)

(* The result key holds every option field exactly: through
   [Pipeline.run], options that differ from the base in one field each
   (a float moved by one ulp, an int, a flag, a DC option, the backend)
   miss, and an equal record built afresh hits. *)
let test_pipeline_options_key () =
  let cache = Tool.Cache.create () in
  let deck =
    Tool.Pipeline.Deck_text
      { name = "tank.sp";
        text = "tank\nR1 n 0 100\nL1 n 0 1u\nC1 n 0 1n\n.end\n" }
  in
  let base () =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e5 1e8 5 }
  in
  let verdict options =
    match
      Tool.Pipeline.run ~cache
        (Tool.Pipeline.request ~options deck (Tool.Pipeline.Single_node "n"))
    with
    | Ok o -> o.Tool.Pipeline.cache
    | Error f -> Alcotest.failf "run failed: %s" (Tool.Pipeline.failure_message f)
  in
  let b = base () in
  let dc = b.Stability.Analysis.dc_options in
  let with_dc dc' = { b with Stability.Analysis.dc_options = dc' } in
  let succ = Float.succ in
  Alcotest.(check bool) "cold base misses" true (verdict b = `Miss);
  List.iter
    (fun (what, options) ->
      Alcotest.(check bool) (what ^ " misses") true (verdict options = `Miss))
    [ ("sweep start", { b with sweep = Numerics.Sweep.Dec { start = succ 1e5; stop = 1e8; per_decade = 5 } });
      ("sweep stop", { b with sweep = Numerics.Sweep.Dec { start = 1e5; stop = succ 1e8; per_decade = 5 } });
      ("points per decade", { b with sweep = Numerics.Sweep.decade 1e5 1e8 6 });
      ("linear sweep", { b with sweep = Numerics.Sweep.Lin { start = 1e5; stop = 1e8; points = 5 } });
      ("refine", { b with refine = not b.refine });
      ("refine ratio", { b with refine_ratio = succ b.refine_ratio });
      ("refine density", { b with refine_per_decade = b.refine_per_decade + 1 });
      ("peak floor", { b with min_peak = succ b.min_peak });
      ("gmin", with_dc { dc with gmin = succ dc.gmin });
      ("reltol", with_dc { dc with reltol = succ dc.reltol });
      ("vntol", with_dc { dc with vntol = succ dc.vntol });
      ("abstol", with_dc { dc with abstol = succ dc.abstol });
      ("max_iter", with_dc { dc with max_iter = dc.max_iter + 1 });
      ("max_step", with_dc { dc with max_step = succ dc.max_step });
      ("dense backend", { b with backend = `Dense });
      ("plan backend", { b with backend = `Plan });
      ("kernel backend", { b with backend = `Kernel }) ];
  Alcotest.(check bool) "an equal record built afresh hits" true
    (verdict (base ()) = `Hit)

let test_cache_eviction () =
  let c = Tool.Cache.create ~capacity:2 () in
  let m = build_manifest [] in
  let calls = ref 0 in
  let get k =
    snd
      (Tool.Cache.result c ~key:k (fun () ->
           incr calls;
           { Tool.Cache.results = []; manifest = m }))
  in
  Alcotest.(check bool) "cold miss" false (get "a");
  Alcotest.(check bool) "warm hit" true (get "a");
  Alcotest.(check bool) "b cold" false (get "b");
  Alcotest.(check bool) "c cold evicts LRU" false (get "c");
  Alcotest.(check bool) "evicted key recomputes" false (get "a");
  Alcotest.(check int) "compute count" 4 !calls;
  let entries =
    List.filter_map
      (fun (s : Tool.Cache.family_stats) ->
        if s.family = "result" then Some s.entries else None)
      (Tool.Cache.stats c)
  in
  Alcotest.(check (list int)) "capacity respected" [ 2 ] entries;
  Tool.Cache.clear c;
  Alcotest.(check bool) "clear forgets" false (get "c")

let family_stat cache name =
  match
    List.find_opt
      (fun (s : Tool.Cache.family_stats) -> s.family = name)
      (Tool.Cache.stats cache)
  with
  | Some s -> s
  | None -> Alcotest.failf "%s family missing from stats" name

(* A deck with one lint warning (a farad-scale capacitor) that still
   analyzes. *)
let warn_text =
  "warn tank\nR1 n 0 100\nL1 n 0 1u\nC1 n 0 1n\nR2 n m 1k\nC2 m 0 0.5\n.end\n"

(* The deck family: a second load of the same text is a hit that parses
   and lints nothing, an edited text is a miss, and the gate is applied
   afresh to the memoized findings on every load. *)
let test_pipeline_deck_family () =
  let cache = Tool.Cache.create () in
  let load ?policy text =
    Tool.Pipeline.load ~cache ?policy
      (Tool.Pipeline.Deck_text { name = "warn.sp"; text })
  in
  let ok = function
    | Ok l -> l
    | Error f ->
      Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)
  in
  let hits () = counter_value "cache.deck.hits"
  and misses () = counter_value "cache.deck.misses" in
  let h0 = hits () and m0 = misses () in
  let builds0 = counter_value "sfg.builds" in
  let l1 = ok (load warn_text) in
  Alcotest.(check int) "first load is a deck miss" (m0 + 1) (misses ());
  (* One graph build per cold request: lint, the manifest's lint report
     and its loops section all read the one sfg entry. *)
  ignore
    (Tool.Pipeline.analyze_exn ~cache ~options:quick_options l1
       (Tool.Pipeline.Single_node "n"));
  Alcotest.(check int) "cold load + analyze build the graph once"
    (builds0 + 1) (counter_value "sfg.builds");
  Alcotest.(check (list string)) "the gate saw the warning"
    [ "suspicious-value" ]
    (List.map (fun (f : Lint.Rule.finding) -> f.rule_id)
       l1.Tool.Pipeline.findings);
  let builds = counter_value "sfg.builds" in
  let l2 = ok (load warn_text) in
  Alcotest.(check int) "second load is a deck hit" (h0 + 1) (hits ());
  Alcotest.(check int) "... and no further miss" (m0 + 1) (misses ());
  Alcotest.(check bool) "hit reuses the parsed circuit" true
    (l1.Tool.Pipeline.circ == l2.Tool.Pipeline.circ);
  Alcotest.(check int) "hit builds no graph" builds
    (counter_value "sfg.builds");
  Alcotest.(check int) "deck family holds one entry" 1
    (family_stat cache "deck").Tool.Cache.entries;
  (* The gate is re-applied to the memoized findings. *)
  (match
     load ~policy:{ Tool.Pipeline.no_lint = false; strict = true } warn_text
   with
   | Error (Tool.Pipeline.Lint_blocked { findings }) ->
     Alcotest.(check int) "strict re-send blocks on the warning" 1
       (List.length findings)
   | _ -> Alcotest.fail "strict load of a warning deck should block");
  let quiet =
    ok (load ~policy:{ Tool.Pipeline.no_lint = true; strict = true } warn_text)
  in
  Alcotest.(check int) "no_lint reports no findings" 0
    (List.length quiet.Tool.Pipeline.findings);
  Alcotest.(check int) "manifests still see the warning" 1
    (List.length (Tool.Pipeline.lint_findings ~cache quiet));
  (* An edit is a new fingerprint: a miss. *)
  let m1 = misses () in
  let edited = ok (load (warn_text ^ "* edited\n")) in
  Alcotest.(check int) "edited text is a deck miss" (m1 + 1) (misses ());
  Alcotest.(check bool) "edited text fingerprints differently" true
    (edited.Tool.Pipeline.sha256 <> l1.Tool.Pipeline.sha256)

(* Deck identity: the deck family is keyed by the origin and the exact
   text, and each entry keeps the text's digest, computed once on its
   miss ([deck.digests]). *)
let test_pipeline_deck_identity () =
  let cache = Tool.Cache.create () in
  let load ~name text =
    match
      Tool.Pipeline.load ~cache (Tool.Pipeline.Deck_text { name; text })
    with
    | Ok l -> l
    | Error f ->
      Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)
  in
  let misses () = counter_value "cache.deck.misses"
  and digests () = counter_value "deck.digests" in
  let d0 = digests () in
  let a = load ~name:"a.sp" warn_text and b = load ~name:"b.sp" warn_text in
  Alcotest.(check int) "one text under two names: two entries" 2
    (family_stat cache "deck").Tool.Cache.entries;
  List.iter
    (fun (l : Tool.Pipeline.loaded) ->
      Alcotest.(check string) (l.deck_name ^ " digest")
        (Tool.Sha256.digest warn_text) l.sha256)
    [ a; b ];
  Alcotest.(check int) "one digest per miss" (d0 + 2) (digests ());
  let d1 = digests () and m1 = misses () in
  let a' = load ~name:"a.sp" warn_text in
  Alcotest.(check int) "a warm hit computes no digest" d1 (digests ());
  Alcotest.(check int) "... and misses nothing" m1 (misses ());
  Alcotest.(check string) "the hit reads the stored digest"
    a.Tool.Pipeline.sha256 a'.Tool.Pipeline.sha256;
  (* The last byte of ".end\n" becomes a space: the same circuit, but
     another text. *)
  let edited =
    String.sub warn_text 0 (String.length warn_text - 1) ^ " "
  in
  let e = load ~name:"a.sp" edited in
  Alcotest.(check int) "a last-byte edit misses" (m1 + 1) (misses ());
  Alcotest.(check string) "... with the edited text's digest"
    (Tool.Sha256.digest edited) e.Tool.Pipeline.sha256;
  Alcotest.(check bool) "... which is new" true
    (e.Tool.Pipeline.sha256 <> a.Tool.Pipeline.sha256)

(* A cold request lints once: the gate's findings are the ones the
   manifest records. A warm repeat lints nothing. Counted from the
   "lint" spans. *)
let test_pipeline_lint_once () =
  let cache = Tool.Cache.create () in
  let lint_spans f =
    Obs.Span.clear ();
    Obs.Span.enable ();
    Fun.protect ~finally:Obs.Span.disable f;
    let n =
      List.length
        (List.filter
           (fun (e : Obs.Span.event) -> e.name = "lint")
           (Obs.Span.events ()))
    in
    Obs.Span.clear ();
    n
  in
  let run () =
    match
      Tool.Pipeline.run ~cache
        (Tool.Pipeline.request ~options:quick_options
           (Tool.Pipeline.Deck_text { name = "warn.sp"; text = warn_text })
           (Tool.Pipeline.Single_node "n"))
    with
    | Ok o -> o
    | Error f -> Alcotest.failf "run failed: %s" (Tool.Pipeline.failure_message f)
  in
  Alcotest.(check int) "a cold run lints once" 1
    (lint_spans (fun () -> ignore (run ())));
  Alcotest.(check int) "a warm run lints nothing" 0
    (lint_spans (fun () -> ignore (run ())));
  (* The serve lint command's path: load without the gate, then ask. *)
  let cache = Tool.Cache.create () in
  Alcotest.(check int) "an ungated load and its findings lint once" 1
    (lint_spans (fun () ->
         match
           Tool.Pipeline.load ~cache
             ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
             (Tool.Pipeline.Deck_text { name = "warn.sp"; text = warn_text })
         with
         | Ok l -> ignore (Tool.Pipeline.lint_findings ~cache l)
         | Error f ->
           Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)))

(* A [loaded] assembled by hand, field by field as a caller outside
   [load] builds it, keys as the inline deck of its name: it hits the
   result entry [run] filled for that deck. *)
let test_pipeline_hand_built_loaded () =
  let cache = Tool.Cache.create () in
  let name = "warn.sp" and text = warn_text in
  let analysis = Tool.Pipeline.Single_node "n" in
  (match
     Tool.Pipeline.run ~cache
       (Tool.Pipeline.request ~options:quick_options
          (Tool.Pipeline.Deck_text { name; text }) analysis)
   with
   | Ok { cache = `Miss; _ } -> ()
   | Ok _ -> Alcotest.fail "the first run should miss"
   | Error f -> Alcotest.failf "run failed: %s" (Tool.Pipeline.failure_message f));
  let circ = Circuit.Parser.parse_string ~name text in
  let findings = Lint.Runner.run circ in
  let sha256 = Tool.Sha256.digest text in
  let loaded =
    { Tool.Pipeline.deck_name = name; deck_text = text; sha256; circ; findings }
  in
  match Tool.Pipeline.analyze ~cache ~options:quick_options loaded analysis with
  | Ok o ->
    Alcotest.(check bool) "a hand-built loaded hits the result family" true
      (o.Tool.Pipeline.cache = `Hit)
  | Error f -> Alcotest.failf "analyze failed: %s" (Tool.Pipeline.failure_message f)

(* The fingerprint covers included files: editing only the included
   part is a new fingerprint (so a miss in every family, whose keys all
   start from it), and an include-free file keeps the digest
   `sha256sum` prints. *)
let test_pipeline_include_fingerprint () =
  let dir = Filename.temp_file "incfp" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let write name text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc text)
  in
  let main = Filename.concat dir "main.sp" in
  write "main.sp"
    "split tank\n.include \"tank_parts.sp\"\nR1 n 0 100\n.end\n";
  write "tank_parts.sp" "L1 n 0 1u\nC1 n 0 1n\n";
  let cache = Tool.Cache.create () in
  let load () =
    match
      Tool.Pipeline.load ~cache
        ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
        (Tool.Pipeline.Deck_file main)
    with
    | Ok l -> l
    | Error f ->
      Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)
  in
  let inductance (l : Tool.Pipeline.loaded) =
    match Circuit.Netlist.find_device l.circ "L1" with
    | Some (Circuit.Netlist.Inductor { l; _ }) -> l
    | _ -> Alcotest.fail "L1 missing"
  in
  let a = load () in
  write "tank_parts.sp" "L1 n 0 4u\nC1 n 0 1n\n";
  let misses = counter_value "cache.deck.misses" in
  let b = load () in
  Alcotest.(check int) "included edit is a deck miss" (misses + 1)
    (counter_value "cache.deck.misses");
  Alcotest.(check bool) "included edit changes the fingerprint" true
    (a.Tool.Pipeline.sha256 <> b.Tool.Pipeline.sha256);
  Alcotest.(check string) "... to the digest of the expanded text"
    (Tool.Sha256.digest b.Tool.Pipeline.deck_text) b.Tool.Pipeline.sha256;
  check_close "edited inductor parsed" 4e-6 (inductance b);
  Alcotest.(check bool) "deck text is the expanded text" true
    (contains b.Tool.Pipeline.deck_text "L1 n 0 4u");
  List.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    [ "main.sp"; "tank_parts.sp" ];
  Unix.rmdir dir;
  let tank = "../circuits/rlc_tank.sp" in
  match Tool.Pipeline.load ~cache (Tool.Pipeline.Deck_file tank) with
  | Ok l ->
    Alcotest.(check string) "include-free deck: digest of its bytes"
      (Tool.Sha256.digest (In_channel.with_open_bin tank In_channel.input_all))
      l.Tool.Pipeline.sha256
  | Error f ->
    Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)

(* One text under two names and both origins. A file's first line is
   its title; inline, "L1 n 0 1u" looks like a card and is parsed as
   one. So the text is an RC pole at 1.592 MHz as a file and an LC
   tank at 5.033 MHz inline, and the four decks name themselves four
   ways: four result misses, each manifest naming its own deck. *)
let test_pipeline_origin_keys () =
  let dir = Filename.temp_file "origins" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let text = "L1 n 0 1u\nC1 n 0 1n\nR1 n 0 100\n.end\n" in
  let file name =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let decks =
    [ (file "a.sp", Tool.Pipeline.Deck_file (file "a.sp"), 1.592e6);
      (file "b.sp", Tool.Pipeline.Deck_file (file "b.sp"), 1.592e6);
      ("a.sp", Tool.Pipeline.Deck_text { name = "a.sp"; text }, 5.033e6);
      ("b.sp", Tool.Pipeline.Deck_text { name = "b.sp"; text }, 5.033e6) ]
  in
  let cache = Tool.Cache.create () in
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e5 1e8 10 }
  in
  let misses () = counter_value "cache.result.misses" in
  let m0 = misses () in
  List.iter
    (fun (name, deck, fn) ->
      match
        Tool.Pipeline.run ~cache
          (Tool.Pipeline.request ~options deck (Tool.Pipeline.Single_node "n"))
      with
      | Error f ->
        Alcotest.failf "%s: %s" name (Tool.Pipeline.failure_message f)
      | Ok o ->
        let m = o.Tool.Pipeline.manifest in
        Alcotest.(check bool) (name ^ " is a miss") true
          (o.Tool.Pipeline.cache = `Miss);
        Alcotest.(check string) (name ^ " names its deck") name
          m.Tool.Manifest.deck_file;
        match m.Tool.Manifest.nodes with
        | [ { Tool.Manifest.f_n = Some f; _ } ] ->
          check_close ~tol:1e-3 (name ^ " f_n") fn f
        | _ -> Alcotest.failf "%s: no peak at n" name)
    decks;
  Alcotest.(check int) "four result misses" (m0 + 4) (misses ());
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "a.sp"; "b.sp" ];
  Unix.rmdir dir

(* Pipeline failures are values carrying the CLI exit-code contract. *)
let test_pipeline_failures () =
  (match
     Tool.Pipeline.load
       (Tool.Pipeline.Deck_text { name = "bad.sp"; text = "* t\nR1 a\n.end\n" })
   with
   | Error (Tool.Pipeline.Parse_failed { message }) ->
     Alcotest.(check bool) "parse error names the deck" true
       (contains message "bad.sp")
   | _ -> Alcotest.fail "expected Parse_failed");
  (* A floating net is a lint error: blocked under the default policy,
     loadable under no_lint. *)
  let floating = "* t\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1p\nR9 x y 1k\n.end\n" in
  (match
     Tool.Pipeline.load (Tool.Pipeline.Deck_text { name = "f.sp"; text = floating })
   with
   | Error (Tool.Pipeline.Lint_blocked { findings }) ->
     Alcotest.(check bool) "findings travel with the block" true
       (findings <> []);
     Alcotest.(check int) "exit code 4" 4
       (Tool.Pipeline.exit_code (Tool.Pipeline.Lint_blocked { findings }))
   | Ok _ -> Alcotest.fail "lint gate should have blocked"
   | Error f ->
     Alcotest.failf "expected Lint_blocked, got: %s"
       (Tool.Pipeline.failure_message f));
  match
    Tool.Pipeline.load
      ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
      (Tool.Pipeline.Deck_text { name = "f.sp"; text = floating })
  with
  | Ok loaded ->
    Alcotest.(check (list string)) "no_lint runs no linter" []
      (List.map (fun (f : Lint.Rule.finding) -> f.rule_id)
         loaded.Tool.Pipeline.findings)
  | Error f ->
    Alcotest.failf "no_lint load failed: %s" (Tool.Pipeline.failure_message f)

let test_manifest_load_errors () =
  Alcotest.(check bool) "not json" true
    (Result.is_error (Tool.Manifest.of_json_string "not json"));
  let json = Tool.Manifest.to_json (build_manifest (ladder_results ())) in
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error
       (Tool.Manifest.of_json_string
          (replace_once json Tool.Manifest.schema_version
             "acstab-manifest/99")));
  Alcotest.(check bool) "unknown quality grade rejected" true
    (Result.is_error
       (Tool.Manifest.of_json_string
          (replace_once json "\"quality\":\"good\"" "\"quality\":\"amazing\"")))

(* ---------- plans compiled on demand ---------- *)

(* The six-stage chain splits into one strongly connected block per
   stage plus the input's: seven blocks, of which a single-node request
   probes one. *)
let chain6_text =
  Circuit.Netlist.to_spice (Workloads.Synth.amp_array ~stages:6 ())

let chain6_run ?(options = Stability.Analysis.default_options) ~cache
    analysis =
  match
    Tool.Pipeline.run ~cache
      (Tool.Pipeline.request ~options
         (Tool.Pipeline.Deck_text
            { name = "amp_array_6.sp"; text = chain6_text })
         analysis)
  with
  | Ok o -> o
  | Error f -> Alcotest.failf "chain run: %s" (Tool.Pipeline.failure_message f)

let delta name f =
  let before = counter_value name in
  let v = f () in
  (v, counter_value name - before)

(* A request compiles the plan of each block it probes and no other; a
   later request on the cached deck compiles only the blocks it adds,
   and one whose blocks are all compiled compiles nothing. *)
let test_plans_compile_on_demand () =
  let cache = Tool.Cache.create () in
  let single n = Tool.Pipeline.Single_node n in
  let _, sym = delta "acplan.symbolic" (fun () -> chain6_run ~cache (single "fb_5")) in
  Alcotest.(check int) "fb_5 compiles its block alone" 1 sym;
  let _, sym = delta "acplan.symbolic" (fun () -> chain6_run ~cache (single "fb_2")) in
  Alcotest.(check int) "a later fb_2 compiles one more block" 1 sym;
  let o, sym = delta "acplan.symbolic" (fun () -> chain6_run ~cache (single "x3_2")) in
  Alcotest.(check bool) "another net of fb_2's block misses the result family"
    true (o.Tool.Pipeline.cache = `Miss);
  Alcotest.(check int) "and compiles nothing" 0 sym;
  (* All nodes, cold: one symbolic analysis per block that holds a net. *)
  let probe =
    Stability.Probe.prepare
      (Circuit.Parser.parse_string ~name:"amp_array_6.sp" chain6_text)
  in
  let holding =
    Circuit.Topology.nodes probe.Stability.Probe.mna.Engine.Mna.topo
    |> Array.to_list
    |> List.map (Stability.Probe.block_of probe)
    |> List.sort_uniq compare
  in
  let _, sym =
    delta "acplan.symbolic" (fun () ->
        chain6_run ~cache:(Tool.Cache.create ()) (Tool.Pipeline.All_nodes None))
  in
  Alcotest.(check int) "all-nodes: one per block holding a net"
    (List.length holding) sym;
  (* The kernel backend compiles one kernel for one probed block. *)
  let options =
    { Stability.Analysis.default_options with backend = `Kernel }
  in
  let cache = Tool.Cache.create () in
  let (_, sym), compiles =
    delta "kernel.compiles" (fun () ->
        delta "acplan.symbolic" (fun () ->
            chain6_run ~options ~cache (single "fb_5")))
  in
  Alcotest.(check int) "kernel: fb_5 compiles one plan" 1 sym;
  Alcotest.(check int) "kernel: fb_5 compiles one kernel" 1 compiles;
  let _, compiles =
    delta "kernel.compiles" (fun () -> chain6_run ~options ~cache (single "fb_2"))
  in
  Alcotest.(check int) "kernel: a later fb_2 compiles one more" 1 compiles

let check_bits what a b =
  Alcotest.(check bool) what true
    (Array.length a = Array.length b
     && Array.for_all2
          (fun (x : Complex.t) (y : Complex.t) ->
            Int64.bits_of_float x.re = Int64.bits_of_float y.re
            && Int64.bits_of_float x.im = Int64.bits_of_float y.im)
          a b)

(* A set filled block by block, by two requests, answers with the bits
   of plans compiled for every block at once. *)
let test_plans_on_demand_bits () =
  let circ = Circuit.Parser.parse_string ~name:"amp_array_6.sp" chain6_text in
  let probe = Stability.Probe.prepare circ in
  let sweep = Stability.Analysis.default_options.Stability.Analysis.sweep in
  let set = Stability.Probe.plan probe ~sweep in
  let sweep_of net =
    match Stability.Probe.response_many ~plan:set probe ~sweep [ net ] with
    | [ (_, w) ] -> w.Numerics.Waveform.Freq.h
    | _ -> assert false
  in
  let h5, sym = delta "acplan.symbolic" (fun () -> sweep_of "fb_5") in
  Alcotest.(check int) "fb_5 compiles one block" 1 sym;
  let h2, sym = delta "acplan.symbolic" (fun () -> sweep_of "fb_2") in
  Alcotest.(check int) "fb_2 compiles one more" 1 sym;
  let blocks = probe.Stability.Probe.blocks in
  let every =
    Engine.Ac_plan.compile_blocks
      ~omega_ref:(Engine.Ac_plan.omega_ref (Numerics.Sweep.points sweep))
      ~op:probe.Stability.Probe.op ~blocks probe.Stability.Probe.mna
  in
  let direct net =
    let i = Engine.Mna.node_index probe.Stability.Probe.mna net in
    let b = blocks.Engine.Blocks.block_of.(i) in
    let k = blocks.Engine.Blocks.local.(i) in
    let e = Array.make (Engine.Blocks.size blocks b) Numerics.Cx.zero in
    e.(k) <- Numerics.Cx.one;
    Array.map
      (fun f ->
        let omega = 2. *. Float.pi *. f in
        (Engine.Ac_plan.solve_many every.(b) ~omega [| e |]).(0).(k))
      (Numerics.Sweep.points sweep)
  in
  check_bits "fb_5 = every-block plans, bit for bit" (direct "fb_5") h5;
  check_bits "fb_2 = every-block plans, bit for bit" (direct "fb_2") h2;
  List.iter
    (fun net ->
      let b = Stability.Probe.block_of probe net in
      Alcotest.(check bool) (net ^ ": same skeleton") true
        (Engine.Ac_plan.skeleton (Engine.Ac_plan.get set b)
         = Engine.Ac_plan.skeleton every.(b)))
    [ "fb_5"; "fb_2" ]

let same_floats what a b =
  Alcotest.(check bool) what true
    (Array.length a = Array.length b
     && Array.for_all2
          (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
          a b)

(* The serve campaign's variant [k] of the six-stage chain: each R and C
   scaled by its own seeded factor within 2%. *)
let campaign_variant ~seed k =
  let st = Random.State.make [| seed; k |] in
  let scale v =
    v *. (1. +. (0.02 *. ((2. *. Random.State.float st 1.) -. 1.)))
  in
  Workloads.Synth.amp_array ~stages:6 ()
  |> Circuit.Netlist.map_devices (function
       | Circuit.Netlist.Resistor r ->
         Circuit.Netlist.Resistor { r with r = scale r.r }
       | Circuit.Netlist.Capacitor c ->
         Circuit.Netlist.Capacitor { c with c = scale c.c }
       | d -> d)
  |> Circuit.Netlist.to_spice

(* Results keep no plot: a printed one is swept again through the
   cached probe and plan, with no DC solve and no symbolic analysis, and
   equals bit for bit the plot of the cleaned response of the run's own
   coarse scan: on the op-amp after an all-nodes run (every net, and
   one), and on a campaign variant of the six-stage chain after a
   single-node run and after an all-nodes run (the chain has a block
   per stage, and a block solves a lone net by another path than a
   batch). *)
let test_coarse_plots_bits () =
  let check ~name ~text ?nets analysis =
    let cache = Tool.Cache.create () in
    let o =
      match
        Tool.Pipeline.run ~cache
          (Tool.Pipeline.request
             (Tool.Pipeline.Deck_text { name; text }) analysis)
      with
      | Ok o -> o
      | Error f -> Alcotest.failf "%s: %s" name (Tool.Pipeline.failure_message f)
    in
    let nets =
      match nets with
      | Some nets -> nets
      | None ->
        List.map
          (fun (r : Stability.Analysis.node_result) -> r.node)
          o.Tool.Pipeline.results
    in
    let (plots, solves), symbolic =
      delta "acplan.symbolic" (fun () ->
          delta "dcop.solves" (fun () -> Tool.Pipeline.coarse_plots ~cache o nets))
    in
    Alcotest.(check int) (name ^ ": no DC solve") 0 solves;
    Alcotest.(check int) (name ^ ": no symbolic analysis") 0 symbolic;
    let probe = Stability.Probe.prepare o.Tool.Pipeline.loaded.Tool.Pipeline.circ in
    let swept =
      match analysis with
      | Tool.Pipeline.Single_node n -> [ n ]
      | _ ->
        Array.to_list
          (Circuit.Topology.nodes probe.Stability.Probe.mna.Engine.Mna.topo)
    in
    let coarse =
      Stability.Probe.response_many probe
        ~sweep:Stability.Analysis.default_options.Stability.Analysis.sweep
        swept
    in
    Alcotest.(check (list string)) (name ^ ": one plot per net") nets
      (List.map fst plots);
    List.iter
      (fun (net, (p : Stability.Stability_plot.t)) ->
        let w, _ =
          Option.get (Stability.Analysis.live_window (List.assoc net coarse))
        in
        let q = Stability.Stability_plot.of_response w in
        let what = Printf.sprintf "%s at %s: " name net in
        same_floats (what ^ "freqs") q.freqs p.freqs;
        same_floats (what ^ "|T|") q.mag p.mag;
        same_floats (what ^ "P") q.p p.p;
        Alcotest.(check int) (what ^ "clamped") q.clamped p.clamped)
      plots
  in
  let text = Circuit.Netlist.to_spice (Workloads.Opamp_2mhz.buffer ()) in
  check ~name:"opamp_2mhz_buffer.sp" ~text (Tool.Pipeline.All_nodes None);
  check ~name:"opamp_2mhz_buffer.sp" ~text ~nets:[ "out" ]
    (Tool.Pipeline.All_nodes None);
  let text = campaign_variant ~seed:4321 0 in
  check ~name:"amp_array_6_v0.sp" ~text (Tool.Pipeline.Single_node "fb_5");
  check ~name:"amp_array_6_v0.sp" ~text ~nets:[ "fb_5"; "x2_1" ]
    (Tool.Pipeline.All_nodes None)

(* What one campaign miss leaves in a cache: the parsed deck, the
   prepared probe, the probed block's plan, the results with their
   manifest and the static report. Counted without the manifest's
   telemetry snapshot (counters and histograms), which lists whatever
   the process has touched so far. About 4,630 words when results kept
   their coarse plots and the netlist kept a second, line-number index
   and a string per terminal; about 3,710 now. *)
let test_cache_one_miss_footprint () =
  let cache = Tool.Cache.create () in
  let o =
    match
      Tool.Pipeline.run ~cache
        (Tool.Pipeline.request
           (Tool.Pipeline.Deck_text
              { name = "amp_array_6_v0.sp"; text = campaign_variant ~seed:7701 0 })
           (Tool.Pipeline.Single_node "fb_5"))
    with
    | Ok o -> o
    | Error f -> Alcotest.failf "miss: %s" (Tool.Pipeline.failure_message f)
  in
  let m = o.Tool.Pipeline.manifest in
  let words v = Obj.reachable_words (Obj.repr v) in
  let kept =
    words cache - words (m.Tool.Manifest.counters, m.Tool.Manifest.histograms)
  in
  Alcotest.(check bool)
    (Printf.sprintf "one miss keeps %d words, under 4000" kept)
    true (kept < 4000)

(* A campaign's kept misses: after 64 distinct single-node misses of the
   six-stage chain (the serve campaign's decks, each R and C scaled by
   its own seeded factor within 2%), the cache holds the probed block's
   plan per variant, a static report without its graph and no answer
   text. 406,154 words when every block was compiled and the graph
   kept; 287,000 to 291,000 while results kept their coarse plots;
   about 232,000 now (each manifest lists every counter registered in
   the process, so the figure moves a little with the tests that ran
   before). *)
let test_cache_campaign_footprint () =
  let variant = campaign_variant ~seed:1234 in
  let cache = Tool.Cache.create ~capacity:64 () in
  for k = 0 to 63 do
    match
      Tool.Pipeline.run ~cache
        (Tool.Pipeline.request
           (Tool.Pipeline.Deck_text
              { name = Printf.sprintf "amp_array_6_v%d.sp" k; text = variant k })
           (Tool.Pipeline.Single_node "fb_5"))
    with
    | Ok o ->
      Alcotest.(check bool) "a distinct variant misses" true
        (o.Tool.Pipeline.cache = `Miss)
    | Error f -> Alcotest.failf "variant %d: %s" k (Tool.Pipeline.failure_message f)
  done;
  let words = Obj.reachable_words (Obj.repr cache) in
  Alcotest.(check bool)
    (Printf.sprintf "cache holds %d words, under 300000" words)
    true (words < 300_000)

let () =
  Alcotest.run "tool"
    [ ("session",
       [ Alcotest.test_case "basics" `Quick test_session_basics;
         Alcotest.test_case "state roundtrip" `Quick
           test_session_state_roundtrip;
         Alcotest.test_case "bad integers fail located" `Quick
           test_session_bad_int_located ]);
      ("ocean",
       [ Alcotest.test_case "design text + desVar" `Quick
           test_ocean_design_text_with_vars;
         Alcotest.test_case "analyses" `Quick test_ocean_analyses;
         Alcotest.test_case "directive fallback" `Quick
           test_ocean_directives_fallback;
         Alcotest.test_case "temperature" `Quick test_ocean_temperature ]);
      ("calculator",
       [ Alcotest.test_case "basic ops" `Quick test_calculator_ops;
         Alcotest.test_case "stab chain" `Quick test_calculator_stab_chain;
         Alcotest.test_case "group delay, real/imag" `Quick
           test_calculator_group_delay ]);
      ("html",
       [ Alcotest.test_case "reports render" `Quick test_html_reports ]);
      ("opstore",
       [ Alcotest.test_case "save/load roundtrip" `Quick
           test_opstore_roundtrip ]);
      ("jobs",
       [ Alcotest.test_case "sequential" `Quick test_jobs_sequential;
         Alcotest.test_case "parallel order and errors" `Quick
           test_jobs_parallel_order_and_errors;
         Alcotest.test_case "parallel simulations" `Quick
           test_jobs_parallel_simulations ]);
      ("corners",
       [ Alcotest.test_case "apply" `Quick test_corners_apply;
         Alcotest.test_case "across" `Quick test_corners_across;
         Alcotest.test_case "temp sweep" `Quick test_temp_sweep ]);
      ("diagnostics",
       [ Alcotest.test_case "guard" `Quick test_diagnostics_guard ]);
      ("sha256",
       [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors ]);
      ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "errors" `Quick test_json_errors;
         Alcotest.test_case "unicode escapes" `Quick
           test_json_unicode_escapes;
         QCheck_alcotest.to_alcotest prop_json_matches_reference;
         Alcotest.test_case "request line allocation" `Quick
           test_json_request_alloc;
         Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
         Alcotest.test_case "salvage in one pass" `Quick test_json_salvage ]);
      ("manifest",
       [ Alcotest.test_case "build/load roundtrip" `Quick
           test_manifest_roundtrip;
         Alcotest.test_case "diff semantics" `Quick test_manifest_diff;
         Alcotest.test_case "diff JSON" `Quick test_manifest_diff_json;
         Alcotest.test_case "load errors" `Quick
           test_manifest_load_errors ]);
      ("plans",
       [ Alcotest.test_case "compile the probed blocks only" `Quick
           test_plans_compile_on_demand;
         Alcotest.test_case "bits of every-block plans" `Quick
           test_plans_on_demand_bits;
         Alcotest.test_case "coarse plots swept again" `Quick
           test_coarse_plots_bits;
         Alcotest.test_case "one miss footprint" `Quick
           test_cache_one_miss_footprint;
         Alcotest.test_case "campaign cache footprint" `Quick
           test_cache_campaign_footprint ]);
      ("cache",
       [ Alcotest.test_case "warm hit re-solves nothing" `Quick
           test_pipeline_warm_hit;
         Alcotest.test_case "key granularity" `Quick
           test_pipeline_cache_keys;
         Alcotest.test_case "kernel family warm reuse" `Quick
           test_pipeline_kernel_warm;
         Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
         Alcotest.test_case "deck family" `Quick test_pipeline_deck_family;
         Alcotest.test_case "deck identity" `Quick test_pipeline_deck_identity;
         Alcotest.test_case "a cold run lints once" `Quick
           test_pipeline_lint_once;
         Alcotest.test_case "hand-built loaded hits" `Quick
           test_pipeline_hand_built_loaded;
         Alcotest.test_case "keys by origin and name" `Quick
           test_pipeline_origin_keys;
         Alcotest.test_case "fingerprint covers includes" `Quick
           test_pipeline_include_fingerprint;
         Alcotest.test_case "options key is exact" `Quick
           test_pipeline_options_key ]);
      ("pipeline",
       [ Alcotest.test_case "failures as values" `Quick
           test_pipeline_failures ]) ]
