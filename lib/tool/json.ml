(* JSON values with a parser and printer — just enough for run
   manifests, lint reports and serve answers ([acstab diff] must read
   back what [--manifest] wrote, hence the parser). No dependency;
   numbers are floats (manifests never carry integers large enough to
   care).

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

(* --- parsing: recursive descent over byte indices --- *)

(* The cursor walks the text in place: no value is allocated per byte
   looked at, a string with no escape is one [String.sub] and one with
   escapes is measured first and then filled with one blit per
   unescaped run. A failure raises [Fail] with [pos] left on the
   offending byte; [of_string] adds the position to the message. *)
type state = { src : string; len : int; mutable pos : int }

exception Fail of string

(* Containers nested deeper than this are refused: requests and
   manifests nest fewer than 10 deep, and the bound keeps the descent's
   stack, and its time on a hostile line, small. *)
let max_depth = 512

let at st c = st.pos < st.len && String.unsafe_get st.src st.pos = c

let rec skip_ws st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      st.pos <- st.pos + 1;
      skip_ws st
    | _ -> ()

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The four characters after [\u], read as [int_of_string "0x...."]
   reads them: the first must be a hex digit, and an underscore after
   it is skipped. *)
let hex4 st =
  if st.pos + 4 > st.len then raise (Fail "short \\u escape");
  let d = hex_digit (String.unsafe_get st.src st.pos) in
  if d < 0 then raise (Fail "bad \\u escape");
  let code = ref d in
  for i = st.pos + 1 to st.pos + 3 do
    match String.unsafe_get st.src i with
    | '_' -> ()
    | c ->
      let d = hex_digit c in
      if d < 0 then raise (Fail "bad \\u escape");
      code := (!code lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !code

(* The code point of the escape whose backslash precedes [pos]; leaves
   [pos] past it. JSON strings carry non-BMP code points as UTF-16
   surrogate pairs (RFC 8259 section 7): a high surrogate is only valid
   immediately followed by an escaped low surrogate, and the pair
   decodes to ONE code point. Unpaired surrogates in either order are
   malformed input. *)
let escape st =
  if st.pos >= st.len then raise (Fail "bad escape");
  match String.unsafe_get st.src st.pos with
  | 'u' ->
    st.pos <- st.pos + 1;
    let code = hex4 st in
    if code >= 0xd800 && code <= 0xdbff then begin
      if
        st.pos + 2 <= st.len
        && String.unsafe_get st.src st.pos = '\\'
        && String.unsafe_get st.src (st.pos + 1) = 'u'
      then begin
        st.pos <- st.pos + 2;
        let low = hex4 st in
        if low >= 0xdc00 && low <= 0xdfff then
          0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00)
        else raise (Fail "unpaired surrogate in \\u escape")
      end
      else raise (Fail "unpaired surrogate in \\u escape")
    end
    else if code >= 0xdc00 && code <= 0xdfff then
      raise (Fail "unpaired surrogate in \\u escape")
    else code
  | c ->
    let code =
      match c with
      | '"' -> 0x22
      | '\\' -> 0x5c
      | '/' -> 0x2f
      | 'n' -> 0x0a
      | 'r' -> 0x0d
      | 't' -> 0x09
      | 'b' -> 0x08
      | 'f' -> 0x0c
      | _ -> raise (Fail "bad escape")
    in
    st.pos <- st.pos + 1;
    code

let utf8_length code =
  if code < 0x80 then 1
  else if code < 0x800 then 2
  else if code < 0x10000 then 3
  else 4

(* UTF-8 encode [code] at [b.[i]]; manifests only ever escape control
   characters but accept all of Unicode. *)
let put_utf8 b i code =
  let byte v = Char.unsafe_chr v in
  if code < 0x80 then Bytes.unsafe_set b i (byte code)
  else if code < 0x800 then begin
    Bytes.unsafe_set b i (byte (0xc0 lor (code lsr 6)));
    Bytes.unsafe_set b (i + 1) (byte (0x80 lor (code land 0x3f)))
  end
  else if code < 0x10000 then begin
    Bytes.unsafe_set b i (byte (0xe0 lor (code lsr 12)));
    Bytes.unsafe_set b (i + 1) (byte (0x80 lor ((code lsr 6) land 0x3f)));
    Bytes.unsafe_set b (i + 2) (byte (0x80 lor (code land 0x3f)))
  end
  else begin
    Bytes.unsafe_set b i (byte (0xf0 lor (code lsr 18)));
    Bytes.unsafe_set b (i + 1) (byte (0x80 lor ((code lsr 12) land 0x3f)));
    Bytes.unsafe_set b (i + 2) (byte (0x80 lor ((code lsr 6) land 0x3f)));
    Bytes.unsafe_set b (i + 3) (byte (0x80 lor (code land 0x3f)))
  end

(* The decoded length [n] plus that of the string body from [i] on,
   leaving [pos] on its closing quote. Every escape decodes to fewer
   bytes than it spells, so the length equals the span exactly when
   there is none. *)
let rec measure st i n =
  if i >= st.len then begin
    st.pos <- i;
    raise (Fail "unterminated string")
  end;
  match String.unsafe_get st.src i with
  | '"' ->
    st.pos <- i;
    n
  | '\\' ->
    st.pos <- i + 1;
    let code = escape st in
    measure st st.pos (n + utf8_length code)
  | _ -> measure st (i + 1) (n + 1)

let rec next_backslash s i stop =
  if i >= stop || String.unsafe_get s i = '\\' then i
  else next_backslash s (i + 1) stop

(* The second pass over a string with escapes, which the first one
   validated: copy the run from [from] to the next backslash into [b] at
   [j], write the escape's code point, and go on up to [stop]. *)
let rec fill st b stop from j =
  let k = next_backslash st.src from stop in
  Bytes.blit_string st.src from b j (k - from);
  let j = j + (k - from) in
  if k < stop then begin
    st.pos <- k + 1;
    let code = escape st in
    put_utf8 b j code;
    fill st b stop st.pos (j + utf8_length code)
  end

let parse_string st =
  if not (at st '"') then raise (Fail "expected '\"'");
  let start = st.pos + 1 in
  let n = measure st start 0 in
  let stop = st.pos in
  let s =
    if n = stop - start then String.sub st.src start n
    else begin
      let b = Bytes.create n in
      fill st b stop start 0;
      Bytes.unsafe_to_string b
    end
  in
  st.pos <- stop + 1;
  s

let parse_number st =
  let start = st.pos in
  let rec stop i =
    if i < st.len then
      match String.unsafe_get st.src i with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> stop (i + 1)
      | _ -> i
    else i
  in
  st.pos <- stop start;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> raise (Fail (Printf.sprintf "bad number %S" text))

let parse_literal st word value =
  let n = String.length word in
  let rec same i =
    i = n || (String.unsafe_get st.src (st.pos + i) = word.[i] && same (i + 1))
  in
  if st.pos + n <= st.len && same 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else raise (Fail ("expected " ^ word))

(* [depth] counts the containers around the value. *)
let rec parse_value st depth =
  skip_ws st;
  if st.pos >= st.len then raise (Fail "unexpected end of input");
  match String.unsafe_get st.src st.pos with
  | ('{' | '[') when depth >= max_depth ->
    raise (Fail (Printf.sprintf "nesting deeper than %d" max_depth))
  | '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else Obj (fields st (depth + 1))
  | '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if at st ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else Arr (items st (depth + 1))
  | '"' -> Str (parse_string st)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> raise (Fail (Printf.sprintf "unexpected %C" c))

and[@tail_mod_cons] fields st depth =
  skip_ws st;
  let key = parse_string st in
  skip_ws st;
  if not (at st ':') then raise (Fail "expected ':'");
  st.pos <- st.pos + 1;
  let v = parse_value st depth in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    (key, v) :: fields st depth
  end
  else if at st '}' then begin
    st.pos <- st.pos + 1;
    [ (key, v) ]
  end
  else raise (Fail "expected ',' or '}'")

and[@tail_mod_cons] items st depth =
  let v = parse_value st depth in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    v :: items st depth
  end
  else if at st ']' then begin
    st.pos <- st.pos + 1;
    [ v ]
  end
  else raise (Fail "expected ',' or ']'")

let of_string s =
  let st = { src = s; len = String.length s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos <> st.len then
      Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
    else Ok v
  | exception Fail msg -> Error (Printf.sprintf "%s at byte %d" msg st.pos)

(* Best-effort recovery of one member's value from a malformed
   document. The serve protocol wants to echo a client's "id" even
   when the request line itself failed to parse (half-written NDJSON),
   so this walks the text's strings in order and answers the value
   after the first one that spells [key] and is followed by ':' and a
   value that parses; nesting is not tracked — acceptable for a
   diagnostic echo, never for real decoding. The walk finds each
   string's end once, skipping escapes unchecked so that a broken one
   cannot knock it out of step, and a failed value marks the text it
   read as [spent], where no key is tried again: every byte is read a
   bounded number of times, so the time is linear in the text's
   length. *)
let salvage_member key s =
  let len = String.length s in
  let st = { src = s; len; pos = 0 } in
  let rec string_end i =
    if i >= len then None
    else
      match String.unsafe_get s i with
      | '"' -> Some (i + 1)
      | '\\' -> string_end (i + 2)
      | _ -> string_end (i + 1)
  in
  let rec next_quote i =
    if i >= len || String.unsafe_get s i = '"' then i else next_quote (i + 1)
  in
  let rec scan i spent =
    let q = next_quote i in
    if q >= len then None
    else
      match string_end (q + 1) with
      | None -> None
      | Some next ->
        st.pos <- q;
        if q >= spent && (try parse_string st = key with Fail _ -> false)
        then begin
          skip_ws st;
          if at st ':' then begin
            st.pos <- st.pos + 1;
            match parse_value st 0 with
            | v -> Some v
            | exception Fail _ -> scan next st.pos
          end
          else scan next spent
        end
        else scan next spent
  in
  scan 0 0

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
