(* The reachability check over lib/'s exported values.

   It reads the typed trees dune leaves in .cmt files, so a reference
   resolves as the compiler resolved it: through [open], through the
   library's own -open, and through [module X = P] and [let module X =
   P in] aliases, another module's included, which a word search cannot
   see.

     surface.exe check EXPECTED GROUP...
     surface.exe verdicts GROUP...

   A GROUP is a marker [lib:NAME], [root:NAME] or [test:NAME] followed by
   .cmt and .cmi files.  A [lib] group's compilation units export the
   values of their .cmi; a [root] group's units (the tools) reach
   whatever they name; a [test] group's units name values but reach
   nothing.  Each reference is charged to the top-level binding that
   holds it, and a top-level binding that is not a function is a root,
   since it runs when its module loads.  An export is reached when a
   live binding or a root in another compilation unit names it.

   [check] exits 1, naming each value, when an export that no other unit
   reaches is missing from EXPECTED, when a line of EXPECTED names a
   value that is reached or no longer exported or gives no reason, or
   when an export is named by no other unit at all, not even a test.
   [verdicts] prints one line per export.  Both exit 2 on a group that
   holds no .cmt, so a glob that matched nothing cannot pass. *)

open Typedtree

type kind = Lib | Root | Test

type group = { kind : kind; label : string; files : string list }

(* ---- Reading the command line -------------------------------------- *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("surface: " ^ s); exit 2) fmt

let parse_groups args =
  let marker a =
    match String.index_opt a ':' with
    | None -> None
    | Some i -> (
        let label = String.sub a (i + 1) (String.length a - i - 1) in
        match String.sub a 0 i with
        | "lib" -> Some (Lib, label)
        | "root" -> Some (Root, label)
        | "test" -> Some (Test, label)
        | _ -> None)
  in
  let close acc = function
    | None -> acc
    | Some g -> { g with files = List.rev g.files } :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (close acc cur)
    | a :: rest -> (
        match (marker a, cur) with
        | Some (kind, label), _ -> go (close acc cur) (Some { kind; label; files = [] }) rest
        | None, Some g -> go acc (Some { g with files = a :: g.files }) rest
        | None, None -> die "%s: a file before the first group marker" a)
  in
  go [] None args

(* ---- Names ---------------------------------------------------------- *)

(* [Cet_disasm__Linear] is dune's name for [Cet_disasm.Linear]. *)
let split_unit name =
  let n = String.length name in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      go (String.sub name start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0

let dotted = String.concat "."

(* ---- One compilation unit ------------------------------------------ *)

type binding = { b_name : string; b_root : bool; b_refs : string list }

type unit_refs = {
  u_name : string;  (** [Lib.Mod], or [label/Mod] outside lib *)
  u_kind : kind;
  u_bindings : binding list;  (** top-level bindings, lib units only *)
  u_loose : string list;  (** references held by no binding *)
  u_aliases : (string * string list) list;
      (** [module X = P] at the top level, as [Unit.X] and [P]: another unit
          that opens this one names [P] through it *)
}

let is_function e = match e.exp_desc with Texp_function _ -> true | _ -> false

let read_unit kind label file =
  let cmt = Cmt_format.read_cmt file in
  let str =
    match cmt.cmt_annots with
    | Cmt_format.Implementation s -> s
    | _ -> die "%s: not an implementation" file
  in
  let unit_path = split_unit cmt.cmt_modname in
  let u_name =
    match kind with Lib -> dotted unit_path | Root | Test -> label ^ "/" ^ cmt.cmt_modname
  in
  (* Local names of modules and top-level values, keyed by identity. *)
  let names : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let bind id path = Hashtbl.replace names (Ident.unique_name id) path in
  let rec resolve = function
    | Path.Pident id -> (
        match Hashtbl.find_opt names (Ident.unique_name id) with
        | Some p -> p
        | None -> split_unit (Ident.name id))
    | Path.Pdot (p, s) -> resolve p @ [ s ]
    | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> resolve p
  in
  let rec alias_of me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (resolve p)
    | Tmod_constraint (me, _, _, _) -> alias_of me
    | _ -> None
  in
  let refs = ref [] in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> refs := dotted (resolve p) :: !refs
          | Texp_letmodule (Some id, _, _, me, _) ->
              Option.iter (bind id) (alias_of me)
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
      module_binding =
        (fun it mb ->
          (match mb.mb_id with
          | Some id -> Option.iter (bind id) (alias_of mb.mb_expr)
          | None -> ());
          Tast_iterator.default_iterator.module_binding it mb);
    }
  in
  let collect f =
    refs := [];
    f ();
    let r = !refs in
    refs := [];
    r
  in
  let bindings = ref [] and loose = ref [] and aliases = ref [] in
  let rec structure prefix s = List.iter (item prefix) s.str_items
  and item prefix si =
    match si.str_desc with
    | Tstr_module { mb_id = Some id; mb_expr; _ } when alias_of mb_expr <> None ->
        let target = Option.get (alias_of mb_expr) in
        bind id target;
        aliases := (dotted (prefix @ [ Ident.name id ]), target) :: !aliases
    | Tstr_value (_, vbs) when kind = Lib ->
        (* every name first: a [let rec] body names its siblings *)
        List.iter (fun id -> bind id (prefix @ [ Ident.name id ])) (let_bound_idents vbs);
        List.iter
          (fun vb ->
            let ids = pat_bound_idents vb.vb_pat in
            let r = collect (fun () -> iter.value_binding iter vb) in
            let b_root = ids = [] || not (is_function vb.vb_expr) in
            List.iter
              (fun id ->
                bindings :=
                  { b_name = dotted (prefix @ [ Ident.name id ]); b_root; b_refs = r }
                  :: !bindings)
              ids;
            if ids = [] then loose := r @ !loose)
          vbs
    | Tstr_module { mb_id = Some id; mb_expr = { mod_desc = Tmod_structure s; _ }; _ }
      when kind = Lib ->
        bind id (prefix @ [ Ident.name id ]);
        structure (prefix @ [ Ident.name id ]) s
    | _ -> loose := collect (fun () -> iter.structure_item iter si) @ !loose
  in
  structure unit_path str;
  { u_name; u_kind = kind; u_bindings = !bindings; u_loose = !loose; u_aliases = !aliases }

(* Rewrite a reference through the other units' module aliases:
   [Items.Register.needs_rex] is [Cet_x86.Register.needs_rex] when Items
   says [module Register = Cet_x86.Register]. *)
let normalize aliases r =
  let rec go depth comps =
    let rec split k =
      if k < 1 then comps
      else
        let pre = List.filteri (fun i _ -> i < k) comps in
        match Hashtbl.find_opt aliases (dotted pre) with
        | Some target -> go (depth + 1) (target @ List.filteri (fun i _ -> i >= k) comps)
        | None -> split (k - 1)
    in
    if depth > 16 then comps else split (List.length comps - 1)
  in
  dotted (go 0 (String.split_on_char '.' r))

(* The values a lib unit exports, nested modules included. *)
let exports_of cmi_file =
  let cmi = Cmi_format.read_cmi cmi_file in
  let unit = dotted (split_unit cmi.cmi_name) in
  let rec sg prefix items =
    List.concat_map
      (function
        | Types.Sig_value (id, _, _) -> [ dotted (prefix @ [ Ident.name id ]) ]
        | Types.Sig_module (id, _, { md_type = Types.Mty_signature s; _ }, _, _) ->
            sg (prefix @ [ Ident.name id ]) s
        | _ -> [])
      items
  in
  List.map (fun e -> (e, unit)) (sg (split_unit cmi.cmi_name) cmi.cmi_sign)

(* ---- The verdicts --------------------------------------------------- *)

type verdict =
  | Reached  (** a tool reaches it through another unit *)
  | Test_only  (** unreached; a test names it *)
  | Dead  (** unreached; only unreached lib code elsewhere names it *)
  | Own_module  (** no other unit names it; its own unit does *)
  | Unnamed  (** nothing names it *)

let verdict_name = function
  | Reached -> "reached"
  | Test_only -> "test-only"
  | Dead -> "dead"
  | Own_module -> "own-module"
  | Unnamed -> "unnamed"

let analyse groups =
  List.iter
    (fun g ->
      if not (List.exists (fun f -> Filename.check_suffix f ".cmt") g.files) then
        die "group %s contributes no .cmt" g.label)
    groups;
  let units =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun f -> if Filename.check_suffix f ".cmt" then Some (read_unit g.kind g.label f) else None)
          g.files)
      groups
  in
  let aliases = Hashtbl.create 256 in
  List.iter (fun u -> List.iter (fun (a, p) -> Hashtbl.replace aliases a p) u.u_aliases) units;
  let units =
    List.map
      (fun u ->
        let norm = List.map (normalize aliases) in
        {
          u with
          u_loose = norm u.u_loose;
          u_bindings = List.map (fun b -> { b with b_refs = norm b.b_refs }) u.u_bindings;
        })
      units
  in
  (* export name -> owning unit, in a stable order *)
  let exports =
    List.concat_map
      (fun g ->
        if g.kind <> Lib then []
        else
          List.concat_map
            (fun f ->
              if Filename.check_suffix f ".cmt" then exports_of (Filename.remove_extension f ^ ".cmi")
              else [])
            g.files)
      groups
  in
  let owner = Hashtbl.create 512 in
  List.iter (fun (e, u) -> Hashtbl.replace owner e u) exports;
  let bindings = Hashtbl.create 1024 in
  List.iter
    (fun u ->
      List.iter
        (fun b ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt bindings b.b_name) in
          Hashtbl.replace bindings b.b_name (b :: prev))
        u.u_bindings)
    units;
  (* the lib bindings the roots reach, directly or through other bindings *)
  let live = Hashtbl.create 1024 in
  let rec reach name =
    if not (Hashtbl.mem live name) then
      match Hashtbl.find_opt bindings name with
      | None -> ()
      | Some bs ->
          Hashtbl.replace live name ();
          List.iter (fun b -> List.iter reach b.b_refs) bs
  in
  List.iter
    (fun u ->
      if u.u_kind <> Test then begin
        List.iter reach u.u_loose;
        List.iter (fun b -> if b.b_root then reach b.b_name) u.u_bindings
      end)
    units;
  (* export -> the other units that name it; whether a test names it, a
     live holder in another unit reaches it, or its own unit names it *)
  let namers = Hashtbl.create 512 and tested = Hashtbl.create 512 in
  let reached = Hashtbl.create 512 and own = Hashtbl.create 512 in
  let note u ~alive r =
    match Hashtbl.find_opt owner r with
    | None -> ()
    | Some o when o = u.u_name -> Hashtbl.replace own r ()
    | Some _ ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt namers r) in
        if not (List.mem u.u_name prev) then Hashtbl.replace namers r (u.u_name :: prev);
        if u.u_kind = Test then Hashtbl.replace tested r ()
        else if alive then Hashtbl.replace reached r ()
  in
  List.iter
    (fun u ->
      List.iter (note u ~alive:true) u.u_loose;
      List.iter (fun b -> List.iter (note u ~alive:(Hashtbl.mem live b.b_name)) b.b_refs) u.u_bindings)
    units;
  List.map
    (fun (e, _) ->
      let by = Option.value ~default:[] (Hashtbl.find_opt namers e) in
      let v =
        if Hashtbl.mem reached e then Reached
        else if Hashtbl.mem tested e then Test_only
        else if by <> [] then Dead
        else if Hashtbl.mem own e then Own_module
        else Unnamed
      in
      (e, v, List.sort compare by))
    exports

(* ---- The checked-in list -------------------------------------------- *)

let separator = " \xe2\x80\x94 " (* " — " *)

let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let read_expected file =
  let ic = open_in file in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let t = String.trim line in
        if t = "" || t.[0] = '#' then go (n + 1) acc
        else
          let name, reason =
            match find t separator with
            | Some i ->
                let j = i + String.length separator in
                (String.sub t 0 i, String.trim (String.sub t j (String.length t - j)))
            | None -> (t, "")
          in
          go (n + 1) ((n, String.trim name, reason) :: acc)
  in
  go 1 []

let check expected verdicts =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let listed = Hashtbl.create 128 in
  List.iter
    (fun (n, name, reason) ->
      Hashtbl.replace listed name ();
      if reason = "" then problem "%s (line %d): listed without a reason" name n;
      match List.find_opt (fun (e, _, _) -> e = name) verdicts with
      | None -> problem "%s (line %d): listed, but no longer exported; delete the line" name n
      | Some (_, Reached, _) -> problem "%s (line %d): listed, but a tool now reaches it; delete the line" name n
      | Some _ -> ())
    expected;
  List.iter
    (fun (name, v, _) ->
      match v with
      | Own_module | Unnamed ->
          problem "%s: exported, but no other module names it, not even a test; delete it or drop it from the .mli" name
      | Test_only | Dead when not (Hashtbl.mem listed name) ->
          problem "%s: no tool reaches it through another module; move it to test/, delete it, or list it with a reason" name
      | _ -> ())
    verdicts;
  List.rev !problems

let () =
  match Array.to_list Sys.argv with
  | _ :: "verdicts" :: groups ->
      List.iter
        (fun (e, v, by) ->
          Printf.printf "%s %s%s\n" e (verdict_name v)
            (if v = Reached then "" else String.concat "" (List.map (( ^ ) " ") by)))
        (analyse (parse_groups groups))
  | _ :: "check" :: expected :: groups -> (
      let verdicts = analyse (parse_groups groups) in
      match check (read_expected expected) verdicts with
      | [] -> ()
      | ps ->
          List.iter (fun p -> prerr_endline ("surface: " ^ p)) ps;
          exit 1)
  | _ -> die "usage: surface.exe (check EXPECTED | verdicts) GROUP..."
