(* JSON values with a parser and printer — just enough for run
   manifests ([acstab diff] must read back what [--manifest] wrote, so
   unlike the emit-only lint reports this needs the round trip). No
   dependency; numbers are floats (manifests never carry integers large
   enough to care).

   [Rendered] holds text this printer already produced. It prints
   verbatim, which lets the serve daemon render a cached manifest once
   and splice the same bytes into every answer; the parser never
   builds one, so every value [of_string] returns is plain data. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Rendered of string

exception Parse_error of string

(* --- printing --- *)

let num_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null" (* JSON has no inf/nan; absent is the honest spelling *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (num_string v)
  | Str s -> Obs.Json_string.add_quoted buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (Str k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'
  | Rendered text -> Buffer.add_string buf text

let to_buffer = write

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

(* --- parsing: plain recursive descent over a string --- *)

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
         (* JSON strings carry non-BMP code points as UTF-16 surrogate
            pairs (RFC 8259 section 7): a high surrogate is only valid
            immediately followed by an escaped low surrogate, and the
            pair decodes to ONE code point — emitting each half as its
            own 3-byte sequence would produce invalid UTF-8. Unpaired
            surrogates in either order are malformed input. *)
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
         (* UTF-8 encode the code point; manifests only ever escape
            control characters but accept all of Unicode. *)
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

(* Best-effort recovery of one member's value from a malformed
   document. The serve protocol wants to echo a client's "id" even
   when the request line itself failed to parse (half-written NDJSON),
   so this scans for a quoted [key] followed by ':' and a value that
   does parse; nesting is not tracked and the first syntactic match
   wins — acceptable for a diagnostic echo, never for real decoding. *)
let salvage_member key s =
  let n = String.length s in
  let rec scan i =
    if i >= n then None
    else
      match String.index_from_opt s i '"' with
      | None -> None
      | Some q ->
        let st = { src = s; pos = q } in
        (match parse_string_raw st with
         | k when k = key ->
           (skip_ws st;
            match peek st with
            | Some ':' ->
              advance st;
              (match parse_value st with
               | v -> Some v
               | exception Parse_error _ -> scan (q + 1))
            | _ -> scan (q + 1))
         | _ -> scan (q + 1)
         | exception Parse_error _ -> scan (q + 1))
  in
  scan 0

(* --- accessors used by manifest loading --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Num v -> Some v
  | _ -> None

let to_str = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr items -> Some items
  | _ -> None

let to_bool = function
  | Bool b -> Some b
  | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v < 1e15 ->
    Some (int_of_float v)
  | _ -> None

let mem_str key v = Option.bind (member key v) to_str
let mem_float key v = Option.bind (member key v) to_float
let mem_int key v = Option.bind (member key v) to_int
let mem_bool key v = Option.bind (member key v) to_bool
