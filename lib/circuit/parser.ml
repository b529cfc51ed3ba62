exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Logical lines: strip comments, join continuations.                  *)

type lline = { num : int; text : string }

let strip_comment s =
  let cut = ref (String.length s) in
  String.iteri
    (fun i c ->
      if i < !cut
         && (c = ';' || (c = '$' && i + 1 < String.length s && s.[i + 1] = ' '))
      then cut := i)
    s;
  String.sub s 0 !cut

(* .include expansion happens on raw text so included cards participate in
   subckt extraction and the param pre-pass like inline text. Lines are
   split and rejoined on '\n' only, so a deck without [.include] comes
   back byte-identical. Every failure is a [Parse_error] at the
   top-level line whose [.include] started the chain. *)
let max_include_depth = 8

(* Up to the length the file reports, not to end of stream, so a device
   path such as /dev/zero cannot stream without bound. *)
let read_file path =
  In_channel.with_open_bin path (fun ic ->
      try really_input_string ic (in_channel_length ic) with
      | Sys_error m -> raise (Sys_error (path ^ ": " ^ m))
      | End_of_file -> raise (Sys_error (path ^ ": shrank while read")))

let include_target line =
  let t = String.trim line in
  if String.length t >= 9
     && String.lowercase_ascii (String.sub t 0 9) = ".include " then
    let path = String.trim (String.sub t 9 (String.length t - 9)) in
    Some (try Scanf.sscanf path "%S" (fun s -> s) with _ -> path)
  else None

(* Whether any line of [text] could be an [.include] card: a '.'
   followed by "include" in any case, anywhere. Text without one is
   returned as it is, uncopied. *)
let may_include text =
  let word = "include" in
  let n = String.length text and m = String.length word in
  let rec spells i k =
    k = m || (Char.lowercase_ascii text.[i + k] = word.[k] && spells i (k + 1))
  in
  let rec from i =
    match String.index_from_opt text i '.' with
    | None -> false
    | Some j -> (j + 1 + m <= n && spells (j + 1) 0) || from (j + 1)
  in
  from 0

let expand_includes ?(base_dir = Filename.current_dir_name) text =
  let rec expand ~base_dir ~depth ~top text =
    String.split_on_char '\n' text
    |> List.mapi (fun i line ->
        let top = Option.value top ~default:(i + 1) in
        match include_target line with
        | None -> line
        | Some path ->
          if depth >= max_include_depth then
            fail top ".include nesting deeper than %d (does a file \
                      include itself?)" max_include_depth;
          let full =
            if Filename.is_relative path then Filename.concat base_dir path
            else path
          in
          let body =
            try read_file full
            with Sys_error m -> fail top "cannot read .include: %s" m
          in
          expand ~base_dir:(Filename.dirname full) ~depth:(depth + 1)
            ~top:(Some top) body)
    |> String.concat "\n"
  in
  if may_include text then expand ~base_dir ~depth:0 ~top:None text else text

let logical_lines ?(first_num = 1) text =
  let raw = String.split_on_char '\n' text in
  let numbered = List.mapi (fun i s -> (i + first_num, s)) raw in
  let keep (_, s) =
    let t = String.trim s in
    t <> "" && t.[0] <> '*'
  in
  let cleaned =
    List.filter keep numbered
    |> List.map (fun (n, s) -> (n, String.trim (strip_comment s)))
    |> List.filter (fun (_, s) -> s <> "")
  in
  let rec join acc = function
    | [] -> List.rev acc
    | (n, s) :: rest when String.length s > 0 && s.[0] = '+' ->
      (match acc with
       | [] -> fail n "continuation line with nothing to continue"
       | { num; text } :: acc' ->
         join ({ num; text = text ^ " " ^ String.sub s 1 (String.length s - 1) }
               :: acc')
         rest)
    | (n, s) :: rest -> join ({ num = n; text = s } :: acc) rest
  in
  join [] cleaned

(* ------------------------------------------------------------------ *)
(* Tokenisation: whitespace-separated, with '(' ')' ',' treated as
   separators and '{...}' kept as single tokens. 'k=v' splits into
   "k=" handling via later pairing; we keep '=' inside tokens.        *)

let tokenize line text =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  let depth = ref 0 in
  String.iter
    (fun c ->
      if !depth > 0 then begin
        if c = '}' then decr depth;
        Buffer.add_char buf c;
        if !depth = 0 then flush ()
      end
      else
        match c with
        | '{' ->
          (* A brace opening right after 'key=' belongs to that token
             ("rbot={rtop*3}"); otherwise it starts a fresh token. *)
          let continues_assignment =
            Buffer.length buf > 0
            && Buffer.nth buf (Buffer.length buf - 1) = '='
          in
          if not continues_assignment then flush ();
          incr depth;
          Buffer.add_char buf c
        | ' ' | '\t' | '(' | ')' | ',' | '\r' -> flush ()
        | _ -> Buffer.add_char buf c)
    text;
  if !depth > 0 then fail line "unbalanced '{' in %S" text;
  flush ();
  List.rev !out

let split_eq tok =
  match String.index_opt tok '=' with
  | Some i when i > 0 ->
    Some
      ( String.lowercase_ascii (String.sub tok 0 i),
        String.sub tok (i + 1) (String.length tok - i - 1) )
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Subcircuit definitions.                                             *)

type subckt = {
  formals : string list;
  defaults : (string * string) list;  (* parameter name -> default expr *)
  body : lline list;
}

let lower = String.lowercase_ascii

(* Split lines into (subckt table, toplevel lines); handles nesting by
   collecting the body verbatim and re-entering [collect] for inner defs. *)
let extract_subckts lines =
  let table = Hashtbl.create 8 in
  let rec go acc = function
    | [] -> List.rev acc
    | ({ num; text } as l) :: rest ->
      let toks = tokenize num text in
      (match toks with
       | card :: name :: args when lower card = ".subckt" ->
         let formals, defaults =
           List.partition (fun t -> split_eq t = None) args
         in
         let defaults =
           List.map
             (fun t ->
               match split_eq t with
               | Some kv -> kv
               | None -> assert false)
             defaults
         in
         let rec grab depth body = function
           | [] -> fail num "missing .ends for subckt %s" name
           | ({ num = n2; text = t2 } as l2) :: rest2 ->
             let k = lower (List.nth_opt (tokenize n2 t2) 0 |> Option.value ~default:"") in
             if k = ".subckt" then grab (depth + 1) (l2 :: body) rest2
             else if k = ".ends" then
               if depth = 0 then (List.rev body, rest2)
               else grab (depth - 1) (l2 :: body) rest2
             else grab depth (l2 :: body) rest2
         in
         let body, rest' = grab 0 [] rest in
         Hashtbl.replace table (lower name) { formals; defaults; body };
         go acc rest'
       | card :: _ when lower card = ".ends" -> fail num ".ends without .subckt"
       | _ -> go (l :: acc) rest)
  in
  let top = go [] lines in
  (table, top)

(* ------------------------------------------------------------------ *)
(* Value parsing helpers.                                              *)

let value_of env line s =
  try Expr.value ~env s with Expr.Error m -> fail line "%s" m

let model_kind_of line s =
  match lower s with
  | "d" -> Netlist.Dmodel
  | "npn" -> Netlist.Npn
  | "pnp" -> Netlist.Pnp
  | "nmos" -> Netlist.Nmos
  | "pmos" -> Netlist.Pmos
  | other -> fail line "unknown model kind %S" other

(* Parse a source specification token list (after the two node names). *)
let parse_source_spec env line toks =
  let dc = ref 0. and ac_mag = ref 0. and ac_phase = ref 0. in
  let wave = ref None in
  let num t = value_of env line t in
  let rec go = function
    | [] -> ()
    | t :: rest ->
      (match lower t with
       | "dc" ->
         (match rest with
          | v :: rest' -> dc := num v; go rest'
          | [] -> fail line "DC needs a value")
       | "ac" ->
         (match rest with
          | m :: p :: rest' when Option.is_some (Numerics.Engnum.parse p) ->
            ac_mag := num m;
            ac_phase := num p;
            go rest'
          | m :: rest' -> ac_mag := num m; go rest'
          | [] -> fail line "AC needs a magnitude")
       | "pulse" ->
         let take n =
           let rec grab k acc = function
             | rest' when k = 0 -> (List.rev acc, rest')
             | [] -> fail line "PULSE needs %d arguments" n
             | v :: rest' -> grab (k - 1) (num v :: acc) rest'
           in
           grab n [] rest
         in
         let args, rest' = take 7 in
         (match args with
          | [ v1; v2; delay; rise; fall; width; period ] ->
            wave := Some (Netlist.Pulse { v1; v2; delay; rise; fall; width;
                                          period });
            go rest'
          | _ -> assert false)
       | "sin" ->
         let rec grab acc = function
           | v :: rest' when Option.is_some (Numerics.Engnum.parse v)
                             || (String.length v > 0 && v.[0] = '{') ->
             grab (num v :: acc) rest'
           | rest' -> (List.rev acc, rest')
         in
         let args, rest' = grab [] rest in
         let nth k d = match List.nth_opt args k with Some v -> v | None -> d in
         if List.length args < 3 then fail line "SIN needs >= 3 arguments";
         wave := Some (Netlist.Sine { offset = nth 0 0.; ampl = nth 1 0.;
                                      freq = nth 2 1.; delay = nth 3 0.;
                                      damping = nth 4 0. });
         go rest'
       | "pwl" ->
         let rec grab acc = function
           | v :: rest' when Option.is_some (Numerics.Engnum.parse v)
                             || (String.length v > 0 && v.[0] = '{') ->
             grab (num v :: acc) rest'
           | rest' -> (List.rev acc, rest')
         in
         let args, rest' = grab [] rest in
         let rec pair = function
           | [] -> []
           | t0 :: v0 :: more -> (t0, v0) :: pair more
           | [ _ ] -> fail line "PWL needs an even number of arguments"
         in
         wave := Some (Netlist.Pwl (pair args));
         go rest'
       | _ ->
         (* A bare leading number is the DC value. *)
         (match Numerics.Engnum.parse t with
          | Some _ -> dc := num t; go rest
          | None ->
            if String.length t > 0 && t.[0] = '{' then (dc := num t; go rest)
            else fail line "unexpected token %S in source" t))
  in
  go toks;
  { Netlist.dc = !dc; ac_mag = !ac_mag; ac_phase_deg = !ac_phase;
    wave = !wave }

(* ------------------------------------------------------------------ *)
(* Device card parsing.                                                *)

let parse_kv_args env line toks =
  List.filter_map
    (fun t ->
      match split_eq t with
      | Some (k, v) -> Some (k, value_of env line v)
      | None -> None)
    toks

let positional toks = List.filter (fun t -> split_eq t = None) toks

let prefixed prefix name = if prefix = "" then name else prefix ^ name

(* Map a net through subcircuit port bindings / hierarchical prefixes. *)
let map_node bindings prefix n =
  if Netlist.is_ground n then Netlist.ground
  else
    match List.assoc_opt (lower n) bindings with
    | Some actual -> actual
    | None -> prefixed prefix n

type context = {
  subckts : (string, subckt) Hashtbl.t;
  mutable circ : Netlist.t;
  nets : (string, string) Hashtbl.t;
      (* one string per net name: every terminal on a net shares it *)
}

let intern ctx n =
  match Hashtbl.find_opt ctx.nets n with
  | Some s -> s
  | None ->
    Hashtbl.add ctx.nets n n;
    n

let rec process_line ctx ~env ~bindings ~prefix { num; text } =
  let toks = tokenize num text in
  match toks with
  | [] -> ()
  | first :: rest ->
    let node n = intern ctx (map_node bindings prefix n) in
    let value = value_of env num in
    let kv = parse_kv_args env num rest in
    let pos = positional rest in
    let c0 = Char.lowercase_ascii first.[0] in
    if c0 = '.' then process_directive ctx ~env num (lower first) rest
    else begin
      let name = prefixed prefix first in
      let dev =
        match c0 with
        | 'r' ->
          (match pos with
           | [ n1; n2; v ] ->
             Netlist.Resistor
               { name; n1 = node n1; n2 = node n2; r = value v;
                 tc1 = Option.value ~default:0. (List.assoc_opt "tc1" kv);
                 tc2 = Option.value ~default:0. (List.assoc_opt "tc2" kv) }
           | _ -> fail num "resistor: Rname n1 n2 value [TC1=] [TC2=]")
        | 'c' ->
          (match pos with
           | [ n1; n2; v ] ->
             Netlist.Capacitor { name; n1 = node n1; n2 = node n2;
                                 c = value v;
                                 ic = List.assoc_opt "ic" kv }
           | _ -> fail num "capacitor: Cname n1 n2 value")
        | 'l' ->
          (match pos with
           | [ n1; n2; v ] ->
             Netlist.Inductor { name; n1 = node n1; n2 = node n2; l = value v;
                                ic = List.assoc_opt "ic" kv }
           | _ -> fail num "inductor: Lname n1 n2 value")
        | 'v' ->
          (match pos with
           | npos :: nneg :: spec_toks ->
             Netlist.Vsource { name; npos = node npos; nneg = node nneg;
                               spec = parse_source_spec env num spec_toks }
           | _ -> fail num "vsource: Vname n+ n- spec")
        | 'i' ->
          (match pos with
           | npos :: nneg :: spec_toks ->
             Netlist.Isource { name; npos = node npos; nneg = node nneg;
                               spec = parse_source_spec env num spec_toks }
           | _ -> fail num "isource: Iname n+ n- spec")
        | 'e' ->
          (match pos with
           | [ np; nn; cp; cn; g ] ->
             Netlist.Vcvs { name; npos = node np; nneg = node nn;
                            cpos = node cp; cneg = node cn; gain = value g }
           | _ -> fail num "vcvs: Ename n+ n- c+ c- gain")
        | 'g' ->
          (match pos with
           | [ np; nn; cp; cn; g ] ->
             Netlist.Vccs { name; npos = node np; nneg = node nn;
                            cpos = node cp; cneg = node cn; gm = value g }
           | _ -> fail num "vccs: Gname n+ n- c+ c- gm")
        | 'f' ->
          (match pos with
           | [ np; nn; v; g ] ->
             Netlist.Cccs { name; npos = node np; nneg = node nn;
                            vname = prefixed prefix v; gain = value g }
           | _ -> fail num "cccs: Fname n+ n- vsrc gain")
        | 'h' ->
          (match pos with
           | [ np; nn; v; r ] ->
             Netlist.Ccvs { name; npos = node np; nneg = node nn;
                            vname = prefixed prefix v; rm = value r }
           | _ -> fail num "ccvs: Hname n+ n- vsrc rm")
        | 'd' ->
          (match pos with
           | [ np; nn; m ] ->
             Netlist.Diode { name; npos = node np; nneg = node nn; model = m;
                             area = 1. }
           | [ np; nn; m; a ] ->
             Netlist.Diode { name; npos = node np; nneg = node nn; model = m;
                             area = value a }
           | _ -> fail num "diode: Dname n+ n- model [area]")
        | 'q' ->
          (match pos with
           | [ nc; nb; ne; m ] ->
             Netlist.Bjt { name; nc = node nc; nb = node nb; ne = node ne;
                           model = m; area = 1. }
           | [ nc; nb; ne; m; a ] ->
             Netlist.Bjt { name; nc = node nc; nb = node nb; ne = node ne;
                           model = m; area = value a }
           | _ -> fail num "bjt: Qname nc nb ne model [area]")
        | 'm' ->
          (match pos with
           | [ nd; ng; ns; nb; m ] ->
             Netlist.Mosfet { name; nd = node nd; ng = node ng; ns = node ns;
                              nb = node nb; model = m;
                              w = Option.value ~default:10e-6
                                    (List.assoc_opt "w" kv);
                              l = Option.value ~default:1e-6
                                    (List.assoc_opt "l" kv) }
           | _ -> fail num "mosfet: Mname nd ng ns nb model [W= L=]")
        | 'k' ->
          (match pos with
           | [ l1; l2; kv ] ->
             let k = value kv in
             if Float.abs k >= 1. then
               fail num "mutual coupling must satisfy |k| < 1";
             Netlist.Mutual { name; l1 = prefixed prefix l1;
                              l2 = prefixed prefix l2; k }
           | _ -> fail num "mutual: Kname L1 L2 k")
        | 'x' ->
          expand_subckt ctx ~env ~bindings ~prefix num first rest;
          (* Devices were added by the expansion; nothing more to add. *)
          raise Exit
        | _ -> fail num "unknown element %S" first
      in
      (try ctx.circ <- Netlist.add ctx.circ dev
       with Invalid_argument m -> fail num "%s" m);
      (* Remember where the card came from so lint findings and
         elaboration errors can cite file:line. *)
      ctx.circ <- Netlist.set_device_line ctx.circ name num
    end

and expand_subckt ctx ~env ~bindings ~prefix num xname rest =
  let pos = positional rest in
  let overrides = List.filter (fun t -> split_eq t <> None) rest in
  match List.rev pos with
  | [] | [ _ ] -> fail num "subckt call: Xname nodes... NAME"
  | sub_name :: rev_actuals ->
    let actuals = List.rev rev_actuals in
    (match Hashtbl.find_opt ctx.subckts (lower sub_name) with
     | None -> fail num "unknown subcircuit %S" sub_name
     | Some { formals; defaults; body } ->
       if List.length formals <> List.length actuals then
         fail num "subckt %s expects %d nodes, got %d" sub_name
           (List.length formals) (List.length actuals);
       let inner_prefix = prefixed prefix xname ^ "." in
       let actual_nodes = List.map (map_node bindings prefix) actuals in
       let port_bindings =
         List.map2 (fun f a -> (lower f, a)) formals actual_nodes
       in
       (* Parameter environment: caller env + defaults + overrides. *)
       let defaults_env =
         List.map (fun (k, vexpr) -> (k, value_of env num vexpr)) defaults
       in
       let override_env =
         List.filter_map
           (fun t ->
             match split_eq t with
             | Some (k, v) -> Some (k, value_of env num v)
             | None -> None)
           overrides
       in
       let env' = override_env @ defaults_env @ env in
       List.iter
         (fun l ->
           try
             process_line ctx ~env:env' ~bindings:port_bindings
               ~prefix:inner_prefix l
           with Exit -> ())
         body)

and process_directive ctx ~env num card rest =
  let value = value_of env num in
  match card with
  | ".model" ->
    (match positional rest with
     | name :: kind :: _ ->
       let params =
         List.filter_map
           (fun t ->
             match split_eq t with
             | Some (k, v) -> Some (k, value v)
             | None -> None)
           rest
       in
       ctx.circ <-
         Netlist.add_model ctx.circ
           { Netlist.model_name = name; kind = model_kind_of num kind; params }
     | _ -> fail num ".model NAME kind k=v ...")
  | ".param" ->
    List.iter
      (fun t ->
        match split_eq t with
        | Some (k, v) ->
          let current = Netlist.params ctx.circ in
          let v = value_of (current @ env) num v in
          ctx.circ <- Netlist.add_param ctx.circ k v
        | None -> fail num ".param needs k=v entries")
      rest
  | ".temp" ->
    (match positional rest with
     | [ t ] -> ctx.circ <- Netlist.with_temp (value t) ctx.circ
     | _ -> fail num ".temp t")
  | ".op" -> ctx.circ <- Netlist.add_directive ctx.circ Netlist.Op
  | ".nodeset" ->
    (* Accept both "v(node)=val" and "node=val" entries. With parentheses
       stripped by the tokeniser, "v(out)=2.5" arrives as "v" "out=2.5". *)
    let entries =
      List.filter_map
        (fun t ->
          match split_eq t with
          | Some (k, v) ->
            let k =
              if String.length k > 2 && String.sub k 0 2 = "v(" then
                String.sub k 2 (String.length k - 2)
              else k
            in
            Some (k, value_of env num v)
          | None -> None)
        rest
    in
    if entries = [] then fail num ".nodeset needs node=value entries";
    ctx.circ <- Netlist.add_directive ctx.circ (Netlist.Nodeset entries)
  | ".ac" ->
    (match positional rest with
     | [ mode; n; f1; f2 ] ->
       let n = int_of_float (value n) in
       let f1 = value f1 and f2 = value f2 in
       let sweep =
         match lower mode with
         | "dec" -> Numerics.Sweep.decade f1 f2 n
         | "lin" -> Numerics.Sweep.linear f1 f2 n
         | other -> fail num "unsupported .ac mode %S" other
       in
       ctx.circ <- Netlist.add_directive ctx.circ (Netlist.Ac sweep)
     | _ -> fail num ".ac dec|lin n f1 f2")
  | ".tran" ->
    (match positional rest with
     | [ tstep; tstop ] ->
       ctx.circ <-
         Netlist.add_directive ctx.circ
           (Netlist.Tran { tstep = value tstep; tstop = value tstop })
     | _ -> fail num ".tran tstep tstop")
  | ".stab" ->
    (match positional rest with
     | [ n ] when lower n = "all" ->
       ctx.circ <- Netlist.add_directive ctx.circ Netlist.Stab_all
     | [ n ] -> ctx.circ <- Netlist.add_directive ctx.circ (Netlist.Stab_node n)
     | _ -> fail num ".stab node|all")
  | ".options" | ".option" ->
    List.iter
      (fun t ->
        match split_eq t with
        | Some (k, v) -> ctx.circ <- Netlist.add_option ctx.circ k (value v)
        | None -> fail num "%s needs k=v entries" card)
      rest
  | ".end" -> ()
  | ".ends" -> fail num ".ends outside a subckt"
  | ".lib" -> fail num "%s is not supported in this reader" card
  | other -> fail num "unknown card %S" other

(* Heuristic used only to decide whether the first line of a string netlist
   is a SPICE title or already a card: element cards start with a known
   element letter and have at least 4 fields, directives with '.'. *)
let looks_like_card s =
  match String.trim s with
  | "" -> false
  | t ->
    let c = Char.lowercase_ascii t.[0] in
    let fields =
      List.filter (( <> ) "") (String.split_on_char ' ' t)
    in
    c = '.'
    || (String.contains "rclvieghfdqmxk" c && List.length fields >= 4)

let parse_string ?(name = "netlist") ?(base_dir = Filename.current_dir_name)
    ?(first_line_title = false) text =
  let text = expand_includes ~base_dir text in
  let lines = String.split_on_char '\n' text in
  (* When the first line is consumed as the title, keep numbering the
     body by physical line so recorded positions match the file. *)
  let title, body_first_num, body_text =
    match lines with
    | first :: rest
      when String.trim first <> ""
           && (String.trim first).[0] <> '.'
           && (String.trim first).[0] <> '*'
           && (first_line_title || not (looks_like_card first)) ->
      (String.trim first, 2, String.concat "\n" rest)
    | _ -> (name, 1, text)
  in
  let llines = logical_lines ~first_num:body_first_num body_text in
  let subckts, top = extract_subckts llines in
  let ctx =
    { subckts; circ = Netlist.empty ~title (); nets = Hashtbl.create 64 }
  in
  (* First pass: collect .param cards so devices can reference them in any
     order, mirroring SPICE behaviour. *)
  List.iter
    (fun { num; text } ->
      match tokenize num text with
      | card :: rest when lower card = ".param" ->
        process_directive ctx ~env:[] num ".param" rest
      | _ -> ())
    top;
  let env = Netlist.params ctx.circ in
  List.iter
    (fun ({ num; text } as l) ->
      match tokenize num text with
      | [] -> ()
      | card :: _ when lower card = ".param" -> ()
      | _ ->
        (try process_line ctx ~env ~bindings:[] ~prefix:"" l
         with Exit -> () | Parse_error _ as e -> raise e
            | Invalid_argument m -> fail num "%s" m))
    top;
  ctx.circ

(* Files follow the strict SPICE convention: the first line is always the
   title (unless it is a comment or a dot-card, tolerated for headless
   decks). *)
let parse_file_text path text =
  parse_string ~name:(Filename.basename path)
    ~base_dir:(Filename.dirname path) ~first_line_title:true text

let parse_file path = parse_file_text path (read_file path)
