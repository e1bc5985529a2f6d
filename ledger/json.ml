(* The writer half of [Cet_util.Jsonl]: the benchmark's result line, its
   span rows and BENCHMARK.json round-trip through these two. *)

type t = Cet_util.Jsonl.t

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integral values print without a fraction; everything else with the
   17 significant digits that read back to the same float, so a measured
   value is never rounded on its way out. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string : t -> string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> escape s
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) fields)
    ^ "}"

let int n : t = Num (float_of_int n)
