(* @serve-fault — inputs that used to kill the daemon or fool its cache,
   driven against a live `acstab serve` and, where the CLI shares the
   path, against the CLI binary given as the first argument:

   - a deck that includes itself answers a code-2 parse error naming
     the offending line, and the daemon still answers a ping afterwards
     (the unbounded nesting once escaped as an uncaught Failure and
     ended the daemon);
   - editing a file that a deck includes is a cache miss whose answer
     carries the new natural frequency and the new text's [deck_sha256]
     (the fingerprint once covered only the top-level text, so the stale
     answer came back as a hit);
   - an inline deck that differs from a cached one only in its last
     byte is a miss with its own [deck_sha256] (the deck cache is keyed
     by the exact text);
   - one text sent as a file and inline, in either order, is answered
     per origin: a file's first line is its title, so "L1 n 0 1u" there
     leaves an RC pole at 1.592 MHz, while inline it is a card and the
     deck an LC tank at 5.033 MHz (keys once held only the digest, so
     the second request got the first one's answer as a hit);
   - a request line that passes [Server.max_line_bytes] without a
     newline is answered one code-2 error and its connection closed,
     while another client is still served (the buffer once grew without
     bound);
   - a client that hangs up before its answer leaves the daemon serving
     (the answer's write once raised SIGPIPE and ended the process);
   - a 256 KiB line of escaped quotes that never closes, and a line of
     many "id" keys each followed by a broken value, are each answered
     one code-2 error well inside the read timeout while another client
     is still served (salvaging the id once restarted a string parse at
     every quote, about 96 s for the first line);
   - `acstab serve` with its stack limited to 1M words
     (OCAMLRUNPARAM=l=1M) answers a line of a million '[' with one
     code-2 error and then a ping (the decoder once recursed once per
     bracket and died of a stack overflow);
   - with a one-entry cache (what `acstab serve --cache-capacity 1`
     starts), deck A, deck B (evicting A) and A again are three misses,
     and each answer's embedded manifest carries that request's
     fingerprint and the answer's own top-level wall_s: a daemon that
     spliced a rendering kept from an earlier computation of A would
     answer the third request with the first run's timing;
   - `acstab all-nodes` and `acstab lint` exit 2 on the self-including
     deck, with no uncaught-exception report. *)

let acstab =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: serve_fault ACSTAB_EXE";
    exit 2
  end
  else Sys.argv.(1)

let dir =
  let d = Filename.temp_file "acstab-fault" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let path name = Filename.concat dir name
let sock = path "serve.sock"

let write name text =
  Out_channel.with_open_bin (path name) (fun oc -> output_string oc text)

let cleanup () =
  Array.iter
    (fun f -> try Sys.remove (path f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve-fault: FAIL: " ^ m);
      cleanup ();
      exit 1)
    fmt

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let str s = Tool.Json.Str s

let error_code r =
  Option.bind (Tool.Json.member "error" r) (Tool.Json.mem_int "code")

(* [line] and its newline, written whole to a raw connection. *)
let send_line fd line =
  let line = line ^ "\n" in
  let rec go off =
    if off < String.length line then
      go (off + Unix.write_substring fd line off (String.length line - off))
  in
  go 0

(* One answer line read from a raw connection whose receive timeout is
   set; [None] when the daemon closed it or the timeout expired. *)
let read_answer fd =
  let b = Buffer.create 256 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> None
    | _ when Bytes.get c 0 = '\n' ->
      (match Tool.Json.of_string (Buffer.contents b) with
       | Ok r -> Some r
       | Error _ -> None)
    | _ ->
      Buffer.add_bytes b c;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      None
  in
  go ()

(* circuits/rlc_tank.sp split in two: R1 stays in the main deck, the
   reactive parts move to an included file. *)
let tank_parts l = Printf.sprintf "L1 n 0 %s\nC1 n 0 1n\n" l

let () =
  write "loop.sp"
    "self-including deck\n.include \"loop.sp\"\nR1 a 0 1k\n.end\n";
  write "main.sp"
    "parallel RLC tank, parts included\nR1 n 0 100\n\
     .include \"tank_parts.sp\"\n.end\n";
  write "tank_parts.sp" (tank_parts "1u");
  let server =
    Thread.create (fun () -> Tool.Server.serve ~socket:sock ()) ()
  in
  let rec wait_for_socket sock n =
    if n = 0 then fail "daemon socket never appeared"
    else if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.05;
      wait_for_socket sock (n - 1)
    end
  in
  wait_for_socket sock 200;
  let ask c fields =
    try Tool.Server.Client.request c (Tool.Json.Obj fields)
    with Failure m -> fail "daemon gone: %s" m
  in
  let c = Tool.Server.Client.connect sock in
  let request = ask c in
  let ping () =
    match Tool.Json.mem_bool "pong" (request [ ("cmd", str "ping") ]) with
    | Some true -> ()
    | _ -> fail "ping not answered"
  in

  (* The self-including deck, through every command that loads a deck. *)
  List.iter
    (fun cmd ->
      let r = request [ ("cmd", str cmd); ("deck", str (path "loop.sp")) ] in
      let error = Tool.Json.member "error" r in
      (match Option.bind error (Tool.Json.mem_int "code") with
       | Some 2 -> ()
       | _ ->
         fail "%s on a self-including deck: %s" cmd (Tool.Json.to_string r));
      let message =
        Option.value ~default:"" (Option.bind error (Tool.Json.mem_str "message"))
      in
      if not (contains message "loop.sp:2:") then
        fail "%s error does not name the .include line: %s" cmd message;
      ping ())
    [ "analyze"; "lint"; "loops" ];

  (* The included-file edit. Each answer's deck_sha256 must be the
     digest of the deck's text as it stands, includes expanded. *)
  let analyze () =
    let r =
      request
        [ ("cmd", str "analyze"); ("mode", str "single-node");
          ("node", str "n"); ("deck", str (path "main.sp")) ]
    in
    let sha =
      Tool.Sha256.digest
        (Circuit.Parser.expand_includes ~base_dir:dir
           (Circuit.Parser.read_file (path "main.sp")))
    in
    if Tool.Json.mem_str "deck_sha256" r <> Some sha then
      fail "answer's deck_sha256 is not the digest of the deck as it \
            stands: %s" (Tool.Json.to_string r);
    match Option.bind (Tool.Json.member "nodes" r) Tool.Json.to_list with
    | Some [ node ] ->
      (match
         ( Tool.Json.mem_str "cache" r,
           Tool.Json.mem_float "f_n" node,
           Tool.Json.mem_float "zeta" node )
       with
       | Some verdict, Some fn, Some zeta -> ((verdict, fn, zeta), sha)
       | _ -> fail "no dominant peak at n: %s" (Tool.Json.to_string r))
    | _ -> fail "analyze failed: %s" (Tool.Json.to_string r)
  in
  let expect what ((verdict, fn, zeta), sha) (verdict', fn', zeta') =
    let close a b = Float.abs (a -. b) <= 1e-2 *. Float.abs b in
    if verdict <> verdict' || not (close fn fn') || not (close zeta zeta')
    then
      fail "%s: got cache=%s f_n=%.4g zeta=%.4g, wanted cache=%s f_n=%.4g \
            zeta=%.4g"
        what verdict fn zeta verdict' fn' zeta';
    sha
  in
  let cold = expect "cold split tank" (analyze ()) ("miss", 5.033e6, 0.158) in
  ignore (expect "warm split tank" (analyze ()) ("hit", 5.033e6, 0.158));
  write "tank_parts.sp" (tank_parts "4u");
  let edited =
    expect "after editing the included part" (analyze ())
      ("miss", 2.516e6, 0.316)
  in
  if edited = cold then fail "the included edit kept the old deck_sha256";

  (* An inline deck and its last-byte edit: ".end\n" ends in a space
     instead, the same circuit but another text. *)
  let tail = "tank tail\nR1 n 0 100\nL1 n 0 1u\nC1 n 0 1n\n.end\n" in
  let tail' = String.sub tail 0 (String.length tail - 1) ^ " " in
  List.iter
    (fun (what, text, verdict) ->
      let r =
        request
          [ ("cmd", str "analyze"); ("mode", str "single-node");
            ("node", str "n"); ("deck_text", str text);
            ("name", str "tail.sp") ]
      in
      match (Tool.Json.mem_str "cache" r, Tool.Json.mem_str "deck_sha256" r) with
      | Some v, Some sha when v = verdict && sha = Tool.Sha256.digest text -> ()
      | _ ->
        fail "%s: wanted a %s carrying its own deck_sha256: %s" what verdict
          (Tool.Json.to_string r))
    [ ("inline deck", tail, "miss"); ("inline deck again", tail, "hit");
      ("inline deck, last byte edited", tail', "miss") ];

  (* One text, file and inline, in both orders. *)
  let origin_text = "L1 n 0 1u\nC1 n 0 1n\nR1 n 0 100\n.end\n" in
  write "pole_a.sp" origin_text;
  write "pole_b.sp" origin_text;
  let single what deck fn' =
    let r =
      request
        ([ ("cmd", str "analyze"); ("mode", str "single-node");
           ("node", str "n") ]
         @ deck)
    in
    match Option.bind (Tool.Json.member "nodes" r) Tool.Json.to_list with
    | Some [ node ] ->
      (match (Tool.Json.mem_str "cache" r, Tool.Json.mem_float "f_n" node) with
       | Some "miss", Some fn when Float.abs (fn -. fn') <= 1e-3 *. fn' -> ()
       | verdict, fn ->
         fail "%s: got cache=%s f_n=%s, wanted a miss at f_n=%.4g" what
           (Option.value ~default:"<absent>" verdict)
           (Option.fold ~none:"<absent>" ~some:(Printf.sprintf "%.4g") fn)
           fn')
    | _ -> fail "%s: analyze failed: %s" what (Tool.Json.to_string r)
  in
  let as_file name = [ ("deck", str (path name)) ] in
  let inline name = [ ("deck_text", str origin_text); ("name", str name) ] in
  single "file first" (as_file "pole_a.sp") 1.592e6;
  single "then the same text inline" (inline "pole_a.sp") 5.033e6;
  single "inline first" (inline "pole_b.sp") 5.033e6;
  single "then the same text as a file" (as_file "pole_b.sp") 1.592e6;

  (* An over-long line, then a client that hangs up unanswered; the
     first client's ping must be answered after each. *)
  let raw () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
    fd
  in
  let long = raw () in
  let chunk = Bytes.make 65536 'x' in
  let rec send left =
    if left > 0 then
      send (left - Unix.write long chunk 0 (Int.min left (Bytes.length chunk)))
  in
  send (Tool.Server.max_line_bytes + 1);
  let ic = Unix.in_channel_of_descr long in
  (match Tool.Json.of_string (input_line ic) with
   | Ok r
     when Option.bind (Tool.Json.member "error" r) (Tool.Json.mem_int "code")
          = Some 2 -> ()
   | Ok r -> fail "over-long line: %s" (Tool.Json.to_string r)
   | Error e -> fail "over-long line: bad answer JSON: %s" e
   | exception (End_of_file | Sys_error _ | Sys_blocked_io) ->
     fail "over-long line: no answer");
  (match input_line ic with
   | exception End_of_file -> ()
   | _ | (exception (Sys_error _ | Sys_blocked_io)) ->
     fail "over-long line: the connection stayed open");
  close_in ic;
  ping ();
  let gone = raw () in
  let line = "{\"cmd\":\"metrics\"}\n" in
  ignore (Unix.write_substring gone line 0 (String.length line));
  Unix.close gone;
  ping ();

  (* Malformed lines whose id salvage once took time quadratic in their
     length; each must be answered code 2 well inside the 30 s read
     timeout, then the first client's ping. *)
  List.iter
    (fun (what, line) ->
      let fd = raw () in
      let t0 = Unix.gettimeofday () in
      send_line fd line;
      let answer = read_answer fd in
      let dt = Unix.gettimeofday () -. t0 in
      (match answer with
       | Some r when error_code r = Some 2 -> ()
       | Some r -> fail "%s: %s" what (Tool.Json.to_string r)
       | None -> fail "%s: no answer" what);
      if dt > 10. then fail "%s: answered after %.1f s" what dt;
      Unix.close fd;
      ping ())
    [ ("256 KiB of escaped quotes",
       "{\"cmd\":\"" ^ String.concat "" (List.init 131072 (fun _ -> "\\\"")));
      (* each id's value an object that never closes, holding the next *)
      ("many ids with broken values",
       "{" ^ String.concat "" (List.init 40000 (fun _ -> "\"id\":{"))) ];

  ignore (request [ ("cmd", str "shutdown") ]);
  Tool.Server.Client.close c;
  Thread.join server;

  (* A, B, A through a one-entry cache: every answer is a miss, and its
     manifest is its own run's. *)
  let small = path "small.sock" in
  let server =
    Thread.create
      (fun () -> Tool.Server.serve ~capacity:1 ~socket:small ())
      ()
  in
  wait_for_socket small 200;
  let c = Tool.Server.Client.connect small in
  let deck l =
    Printf.sprintf "tank %s\nR1 n 0 100\nL1 n 0 %s\nC1 n 0 1n\n.end\n" l l
  in
  List.iter
    (fun (what, text) ->
      let r =
        ask c
          [ ("cmd", str "analyze"); ("mode", str "single-node");
            ("node", str "n"); ("deck_text", str text);
            ("name", str "tank.sp") ]
      in
      let manifest = Tool.Json.member "manifest" r in
      let sha = Tool.Sha256.digest text in
      let answer =
        ( Tool.Json.mem_str "cache" r,
          Tool.Json.mem_str "deck_sha256" r,
          Tool.Json.mem_float "wall_s" r )
      and embedded =
        ( Option.bind manifest (fun m ->
              Option.bind (Tool.Json.member "deck" m)
                (Tool.Json.mem_str "sha256")),
          Option.bind manifest (fun m ->
              Option.bind (Tool.Json.member "timing" m)
                (Tool.Json.mem_float "wall_s")) )
      in
      match (answer, embedded) with
      | (Some "miss", Some sha', Some wall), (Some msha, Some mwall)
        when sha' = sha && msha = sha && mwall = wall -> ()
      | _ ->
        fail "%s through a one-entry cache: answer and manifest disagree: %s"
          what (Tool.Json.to_string r))
    [ ("deck A", deck "1u"); ("deck B", deck "4u");
      ("deck A again", deck "1u") ];
  ignore (ask c [ ("cmd", str "shutdown") ]);
  Tool.Server.Client.close c;
  Thread.join server;

  (* A daemon process whose stack holds 1M words: a million '[' in one
     line are refused at the nesting bound, not recursed into. *)
  let deep = path "deep.sock" in
  let env =
    Array.append [| "OCAMLRUNPARAM=l=1M" |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env acstab
      [| acstab; "serve"; "-j"; "1"; "-q"; "--socket"; deep |]
      env devnull devnull devnull
  in
  Unix.close devnull;
  (* A failing check exits the test; the child must not outlive it. *)
  let reaped = ref false in
  at_exit (fun () ->
      if not !reaped then
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_for_socket deep 200;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX deep);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  send_line fd (String.make 1_000_000 '[');
  (match read_answer fd with
   | Some r when error_code r = Some 2 -> ()
   | Some r -> fail "a million '[': %s" (Tool.Json.to_string r)
   | None -> fail "a million '[': no answer (the daemon died?)");
  send_line fd "{\"cmd\":\"ping\"}";
  (match read_answer fd with
   | Some r when Tool.Json.mem_bool "pong" r = Some true -> ()
   | _ -> fail "no ping answer after a million '['");
  send_line fd "{\"cmd\":\"shutdown\"}";
  ignore (read_answer fd);
  Unix.close fd;
  let status = snd (Unix.waitpid [] pid) in
  reaped := true;
  (match status with
   | Unix.WEXITED 0 -> ()
   | Unix.WEXITED n -> fail "the small-stack daemon exited %d" n
   | _ -> fail "the small-stack daemon was killed");

  (* The CLI on the self-including deck. *)
  List.iter
    (fun cmd ->
      let err = path "cli.err" in
      let fd =
        Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process acstab [| acstab; cmd; path "loop.sp" |]
          Unix.stdin devnull fd
      in
      Unix.close fd;
      Unix.close devnull;
      let status = snd (Unix.waitpid [] pid) in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      match status with
      | Unix.WEXITED 2 when not (contains stderr "uncaught") -> ()
      | Unix.WEXITED n -> fail "acstab %s exited %d: %s" cmd n stderr
      | _ -> fail "acstab %s was killed" cmd)
    [ "all-nodes"; "lint" ];
  cleanup ();
  print_endline
    "serve-fault: OK (self-including deck answered code 2 by \
     analyze/lint/loops with the daemon still serving, included-file edit \
     re-analyzed as a miss with the new f_n and deck_sha256, an inline \
     last-byte edit answered as a miss with its own deck_sha256, one text \
     answered per origin \
     as a file and inline in both orders, over-long line answered code 2 \
     and closed, a hung-up client left the daemon serving, escaped-quote \
     and broken-id lines answered code 2 promptly, a million '[' answered \
     code 2 under a 1M-word stack, A/B/A through \
     a one-entry cache answered three misses each with its own manifest, \
     CLI exits 2 on the self-including deck)"
