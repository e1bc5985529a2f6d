type callee = Local of string | Import of string

type stmt =
  | Compute of int
  | Call of callee
  | Call_via_pointer of string
  | Store_fn_pointer of string
  | Indirect_return_call of string
  | If_else of stmt list * stmt list
  | Loop of stmt list
  | Switch of stmt list list
  | Try_catch of stmt list * stmt list list
  | Tail_call_site of string
  | Jump_to_part of string

type linkage = Exported | Static

type fragment_fate =
  | Keep_whole
  | Split_cold of stmt list
  | Split_part of { shared_jump : bool; part_body : stmt list }

type func = {
  name : string;
  linkage : linkage;
  address_taken : bool;
  no_endbr : bool;
  dead : bool;
  fate : fragment_fate;
  body : stmt list;
}

type lang = C | Cpp

type program = {
  prog_name : string;
  lang : lang;
  funcs : func list;
  extra_imports : string list;
}

let func ?(linkage = Exported) ?(address_taken = false) ?(no_endbr = false)
    ?(dead = false) ?(fate = Keep_whole) name body =
  { name; linkage; address_taken; no_endbr; dead; fate; body }

let rec stmt_imports acc = function
  | Compute _ | Store_fn_pointer _ | Call_via_pointer _ | Call (Local _)
  | Tail_call_site _ | Jump_to_part _ ->
    acc
  | Call (Import i) -> i :: acc
  | Indirect_return_call i -> i :: acc
  | If_else (a, b) -> stmts_imports (stmts_imports acc a) b
  | Loop b -> stmts_imports acc b
  | Switch cases -> List.fold_left stmts_imports acc cases
  | Try_catch (body, handlers) ->
    let acc = stmts_imports acc body in
    (* Handlers call the C++ ABI runtime. *)
    let acc = "__cxa_begin_catch" :: "__cxa_end_catch" :: acc in
    List.fold_left stmts_imports acc handlers

and stmts_imports acc stmts = List.fold_left stmt_imports acc stmts

let fate_stmts = function
  | Keep_whole -> []
  | Split_cold stmts -> stmts
  | Split_part { part_body; _ } -> part_body

let func_stmts f = f.body @ fate_stmts f.fate

let dedup_keep_order names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        true
      end)
    names

let collect_imports p =
  let body_imports =
    List.concat_map (fun f -> List.rev (stmts_imports [] (func_stmts f))) p.funcs
  in
  let cpp = if p.lang = Cpp then [ "__gxx_personality_v0"; "_Unwind_Resume" ] else [] in
  dedup_keep_order (body_imports @ cpp @ p.extra_imports)

let rec stmt_refs acc = function
  | Compute _ | Call (Import _) | Indirect_return_call _ -> acc
  | Call (Local n) -> (`Call, n) :: acc
  | Tail_call_site n -> (`Tail, n) :: acc
  | Jump_to_part n -> (`Part, n) :: acc
  | Call_via_pointer n | Store_fn_pointer n -> (`Addr, n) :: acc
  | If_else (a, b) -> stmts_refs (stmts_refs acc a) b
  | Loop b -> stmts_refs acc b
  | Switch cases -> List.fold_left stmts_refs acc cases
  | Try_catch (body, handlers) -> List.fold_left stmts_refs (stmts_refs acc body) handlers

and stmts_refs acc stmts = List.fold_left stmt_refs acc stmts

let validate p =
  let tbl = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace tbl f.name f) p.funcs;
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  if not (Hashtbl.mem tbl "main") then fail "no main function";
  let dups = Hashtbl.create 64 in
  List.iter
    (fun f ->
      if Hashtbl.mem dups f.name then fail "duplicate function %s" f.name
      else Hashtbl.replace dups f.name ())
    p.funcs;
  List.iter
    (fun f ->
      let refs = List.rev (stmts_refs [] (func_stmts f)) in
      List.iter
        (fun (kind, n) ->
          match Hashtbl.find_opt tbl n with
          | None -> fail "%s references unknown function %s" f.name n
          | Some callee -> (
            match kind with
            | `Addr when not callee.address_taken ->
              fail "%s takes address of %s, which is not address_taken" f.name n
            | `Part when (match callee.fate with Split_part _ -> false | _ -> true) ->
              fail "%s jumps into %s, which has no part fragment" f.name n
            | _ -> ()))
        refs;
      let rec check_stmts stmts =
        List.iter
          (fun s ->
            match s with
            | Try_catch (b, hs) ->
              if p.lang <> Cpp then fail "try/catch in C program (%s)" f.name;
              check_stmts b;
              List.iter check_stmts hs
            | If_else (a, b) ->
              check_stmts a;
              check_stmts b
            | Loop b -> check_stmts b
            | Switch cs -> List.iter check_stmts cs
            | Compute _ | Call _ | Call_via_pointer _ | Store_fn_pointer _
            | Indirect_return_call _ | Tail_call_site _ | Jump_to_part _ ->
              ())
          stmts
      in
      check_stmts (func_stmts f);
      match f.linkage, f.no_endbr with
      | Static, true -> fail "%s: no_endbr only applies to exported functions" f.name
      | _ -> ())
    p.funcs;
  match !err with None -> Ok () | Some e -> Error e
