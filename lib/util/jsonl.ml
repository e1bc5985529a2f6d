type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

(* A recursive-descent parser over (string, position ref).  Inputs are
   single report lines — recursion depth is bounded by the writers. *)

let skip_ws s i =
  let n = String.length s in
  while
    !i < n
    && match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr i
  done

let expect s i c =
  if !i >= String.length s || s.[!i] <> c then
    fail !i (Printf.sprintf "expected '%c'" c);
  incr i

let hex_digit pos c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail pos "bad hex digit in \\u escape"

let utf8_add buf cp =
  (* The writers only escape below 0x20, but accept any scalar up to
     U+10FFFF: surrogate pairs are combined by the string parser below, so
     astral codepoints need the 4-byte form.  A lone surrogate (which no
     conforming writer emits) is encoded blindly in the 3-byte form —
     lenient WTF-8 rather than a hard error, good enough for reading our
     own output. *)
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string s i =
  expect s i '"';
  let n = String.length s in
  let buf = Buffer.create 16 in
  let rec go () =
    if !i >= n then fail !i "unterminated string"
    else
      match s.[!i] with
      | '"' -> incr i
      | '\\' ->
        incr i;
        if !i >= n then fail !i "unterminated escape";
        (match s.[!i] with
        | '"' -> Buffer.add_char buf '"'; incr i
        | '\\' -> Buffer.add_char buf '\\'; incr i
        | '/' -> Buffer.add_char buf '/'; incr i
        | 'b' -> Buffer.add_char buf '\b'; incr i
        | 'f' -> Buffer.add_char buf '\012'; incr i
        | 'n' -> Buffer.add_char buf '\n'; incr i
        | 'r' -> Buffer.add_char buf '\r'; incr i
        | 't' -> Buffer.add_char buf '\t'; incr i
        | 'u' ->
          if !i + 4 >= n then fail !i "truncated \\u escape";
          let h k = hex_digit (!i + k) s.[!i + k] in
          let cp = (h 1 lsl 12) lor (h 2 lsl 8) lor (h 3 lsl 4) lor h 4 in
          i := !i + 5;
          (* RFC 8259 represents astral codepoints as a UTF-16 surrogate
             pair of two \u escapes; a high surrogate followed by a low
             one combines into one scalar.  Anything else falls through
             to the lenient single-escape encoding. *)
          if
            cp >= 0xD800 && cp <= 0xDBFF
            && !i + 5 < n
            && s.[!i] = '\\'
            && s.[!i + 1] = 'u'
          then begin
            let h2 k = hex_digit (!i + k) s.[!i + k] in
            let lo = (h2 2 lsl 12) lor (h2 3 lsl 8) lor (h2 4 lsl 4) lor h2 5 in
            if lo >= 0xDC00 && lo <= 0xDFFF then begin
              utf8_add buf
                (0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00)));
              i := !i + 6
            end
            else utf8_add buf cp
          end
          else utf8_add buf cp
        | c -> fail !i (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c ->
        Buffer.add_char buf c;
        incr i;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number s i =
  let start = !i in
  let n = String.length s in
  let adv () = if !i < n then incr i in
  if !i < n && s.[!i] = '-' then adv ();
  while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
    adv ()
  done;
  if !i < n && s.[!i] = '.' then begin
    adv ();
    while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
      adv ()
    done
  end;
  if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
    adv ();
    if !i < n && (s.[!i] = '+' || s.[!i] = '-') then adv ();
    while !i < n && match s.[!i] with '0' .. '9' -> true | _ -> false do
      adv ()
    done
  end;
  if !i = start then fail start "expected a value";
  match float_of_string_opt (String.sub s start (!i - start)) with
  | Some f -> f
  | None -> fail start "malformed number"

let parse_literal s i word v =
  let n = String.length word in
  if !i + n <= String.length s && String.sub s !i n = word then begin
    i := !i + n;
    v
  end
  else fail !i (Printf.sprintf "expected '%s'" word)

let rec parse_value s i =
  skip_ws s i;
  if !i >= String.length s then fail !i "unexpected end of input"
  else
    match s.[!i] with
    | '"' -> Str (parse_string s i)
    | '{' ->
      incr i;
      skip_ws s i;
      if !i < String.length s && s.[!i] = '}' then begin
        incr i;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws s i;
          let k = parse_string s i in
          skip_ws s i;
          expect s i ':';
          let v = parse_value s i in
          fields := (k, v) :: !fields;
          skip_ws s i;
          if !i < String.length s && s.[!i] = ',' then begin
            incr i;
            members ()
          end
          else expect s i '}'
        in
        members ();
        Obj (List.rev !fields)
      end
    | '[' ->
      incr i;
      skip_ws s i;
      if !i < String.length s && s.[!i] = ']' then begin
        incr i;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value s i in
          items := v :: !items;
          skip_ws s i;
          if !i < String.length s && s.[!i] = ',' then begin
            incr i;
            elements ()
          end
          else expect s i ']'
        in
        elements ();
        List (List.rev !items)
      end
    | 't' -> parse_literal s i "true" (Bool true)
    | 'f' -> parse_literal s i "false" (Bool false)
    | 'n' -> parse_literal s i "null" Null
    | _ -> Num (parse_number s i)

let parse s =
  let i = ref 0 in
  match parse_value s i with
  | v ->
    skip_ws s i;
    if !i < String.length s then
      Error (Printf.sprintf "byte %d: trailing input" !i)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "byte %d: %s" pos msg)

let parse_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) acc rest
      else (
        match parse line with
        | Ok v -> go (lineno + 1) (v :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go 1 [] lines

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let list = function List l -> Some l | _ -> None
