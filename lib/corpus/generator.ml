module Prng = Cet_util.Prng
module Ibuf = Cet_util.Ibuf
module Ir = Cet_compiler.Ir

type cls =
  | Endbr_call
  | Endbr_only
  | Endbr_jmp_call
  | Endbr_jmp
  | Call_only
  | Jmp_call
  | Jmp_only
  | Dead

let sample_class g (w : Profile.class_weights) =
  Prng.choose_weighted g
    [
      (Endbr_call, w.w_endbr_call);
      (Endbr_only, w.w_endbr_only);
      (Endbr_jmp_call, w.w_endbr_jmp_call);
      (Endbr_jmp, w.w_endbr_jmp);
      (Call_only, w.w_call_only);
      (Jmp_call, w.w_jmp_call);
      (Jmp_only, w.w_jmp_only);
      (Dead, w.w_dead);
    ]

(* Per-function plan derived from its class. *)
type plan = {
  p_name : string;
  p_cls : cls;
  mutable p_exported : bool;
  mutable p_addr_taken : bool;
  mutable p_no_endbr : bool;
  p_dead : bool;
  p_call_refs : int;  (* direct-call references to wire *)
  p_tail_refs : int;  (* tail-call references to wire *)
  p_addr_refs : int;  (* pointer-taking references to wire *)
}

let make_plan g (profile : Profile.t) name cls =
  let multi_tail () = if Prng.chance g profile.p_multi_tail then 2 else 1 in
  let base =
    {
      p_name = name;
      p_cls = cls;
      p_exported = false;
      p_addr_taken = false;
      p_no_endbr = false;
      p_dead = false;
      p_call_refs = 0;
      p_tail_refs = 0;
      p_addr_refs = 0;
    }
  in
  match cls with
  | Endbr_call ->
    let p = { base with p_call_refs = 1 + Prng.int g 3 } in
    if Prng.chance g 0.9 then p.p_exported <- true else p.p_addr_taken <- true;
    (* Some called exports are also stored in tables of callbacks. *)
    if Prng.chance g 0.15 then p.p_addr_taken <- true;
    p
  | Endbr_only ->
    (* Functions with an end-branch but no direct branch in .text: their
       addresses escape through data (callback tables, vtables) or the
       dynamic symbol table.  All are address-taken — that is why a
       -mmanual-endbr build would still have to mark them (SSVI) — but only
       some take their address in code the sweep can see. *)
    let p = { base with p_addr_refs = (if Prng.chance g 0.3 then 1 else 0) } in
    p.p_addr_taken <- true;
    if Prng.chance g 0.5 then p.p_exported <- true;
    p
  | Endbr_jmp_call ->
    let p = { base with p_call_refs = 1; p_tail_refs = 1 } in
    p.p_exported <- true;
    p
  | Endbr_jmp ->
    let p = { base with p_tail_refs = multi_tail () } in
    p.p_exported <- true;
    p
  | Call_only ->
    let p = { base with p_call_refs = 1 + Prng.int g 3 } in
    (* A sliver of exported no-end-branch intrinsics (paper: 0.15% of
       non-static functions). *)
    if Prng.chance g (profile.p_intrinsic /. 0.10) then begin
      p.p_exported <- true;
      p.p_no_endbr <- true
    end;
    p
  | Jmp_call -> { base with p_call_refs = 1; p_tail_refs = 1 }
  | Jmp_only -> { base with p_tail_refs = multi_tail () }
  | Dead -> { base with p_dead = true }

(* Random structured body. *)
let rec gen_stmts g (profile : Profile.t) ~lang ~depth =
  let n = 2 + Prng.int g 4 in
  List.init n (fun _ -> gen_stmt g profile ~lang ~depth)

and gen_stmt g profile ~lang ~depth =
  let leaf () = Ir.Compute (1 + Prng.int g 6) in
  if depth <= 0 then leaf ()
  else
    match Prng.int g 100 with
    | x when x < 32 -> leaf ()
    | x when x < 62 ->
      (* Two-armed conditionals dominate: each join point is one of the
         spurious direct-jump targets that wreck configuration (3). *)
      Ir.If_else
        ( gen_stmts g profile ~lang ~depth:(depth - 1),
          if Prng.chance g 0.25 then [] else gen_stmts g profile ~lang ~depth:(depth - 1) )
    | x when x < 72 -> Ir.Loop (gen_stmts g profile ~lang ~depth:(depth - 1))
    | x when x < 88 -> Ir.Call (Ir.Import (Prng.choose g profile.imports))
    | _ ->
      if Prng.float g < profile.p_switch *. 3.0 then
        let cases = 4 + Prng.int g 6 in
        Ir.Switch (List.init cases (fun _ -> [ Ir.Compute (1 + Prng.int g 3) ]))
      else leaf ()

let indirect_return_name g =
  Prng.choose_weighted g
    [
      ("setjmp", 0.5); ("vfork", 0.2); ("sigsetjmp", 0.15); ("_setjmp", 0.1);
      ("getcontext", 0.05);
    ]

let gen_body g (profile : Profile.t) ~lang =
  let body = ref (gen_stmts g profile ~lang ~depth:2) in
  if lang = Ir.Cpp then begin
    (* Bernoulli approximation of the suite's try density. *)
    if Prng.chance g profile.tries_per_func then begin
      let handlers = 1 + Prng.int g 3 in
      let t =
        Ir.Try_catch
          ( gen_stmts g profile ~lang ~depth:1,
            List.init handlers (fun _ -> [ Ir.Compute (1 + Prng.int g 2) ]) )
      in
      body := t :: !body
    end
  end;
  if Prng.chance g profile.p_setjmp then
    body := Ir.Indirect_return_call (indirect_return_name g) :: !body;
  !body

let program ~seed ~(profile : Profile.t) ~index =
  let g = Prng.create (Hashtbl.hash (seed, profile.suite, index)) in
  (* The language split is stratified by index, not sampled: a scaled-down
     suite keeps exactly the profile's C/C++ proportion, which Table I's
     exception share is sensitive to. *)
  let lang =
    let f = profile.lang_cpp_fraction in
    let crossed =
      int_of_float (float_of_int (index + 1) *. f) > int_of_float (float_of_int index *. f)
    in
    if crossed then Ir.Cpp else Ir.C
  in
  let n = Prng.in_range g profile.funcs_lo profile.funcs_hi in
  let plans =
    Array.init n (fun i ->
        if i = 0 then begin
          let p = make_plan g profile "main" Endbr_call in
          p.p_exported <- true;
          p
        end
        else make_plan g profile (Printf.sprintf "fn%04d" i) (sample_class g profile.classes))
  in
  (* Bodies first. *)
  let bodies = Array.map (fun _ -> ref []) plans in
  Array.iteri (fun i _ -> bodies.(i) := gen_body g profile ~lang) plans;
  (* Split fates, drawn before wiring so shared parts can pick a sibling. *)
  let fates = Array.make n Ir.Keep_whole in
  let shared_part_owners = ref [] in
  Array.iteri
    (fun i (p : plan) ->
      if i > 0 && not p.p_dead then begin
        if Prng.chance g profile.p_split_cold then
          fates.(i) <- Ir.Split_cold (gen_stmts g profile ~lang ~depth:1)
        else if Prng.chance g profile.p_split_part then begin
          let shared = Prng.chance g profile.p_part_shared in
          fates.(i) <-
            Ir.Split_part { shared_jump = shared; part_body = gen_stmts g profile ~lang ~depth:1 };
          if shared then shared_part_owners := i :: !shared_part_owners
        end
      end)
    plans;
  (* Wire references.  Callers are non-dead functions other than the
     target.  Direct-branch callers are biased toward code already
     reachable from [main], giving the call graph the main-rooted shape of
     real programs (what recursive-descent tools such as IDA exploit);
     pointer-taking references are wired from anywhere, since data-flow
     reachability is exactly what those tools cannot see. *)
  let caller_pool =
    Array.of_list
      (List.filter_map
         (fun i -> if plans.(i).p_dead then None else Some i)
         (List.init n (fun i -> i)))
  in
  let reachable = Hashtbl.create n in
  Hashtbl.replace reachable 0 ();
  (* The callers reachable from [main], in the order they became so; a
     draw [i] picks the [i]th most recent. *)
  let reachable_pool = Ibuf.create ~capacity:n () in
  Ibuf.push reachable_pool 0;
  let pick_any target chosen =
    let attempts = ref 0 in
    let result = ref None in
    while !result = None && !attempts < 20 do
      incr attempts;
      let c = caller_pool.(Prng.int g (Array.length caller_pool)) in
      if c <> target && not (List.mem c chosen) then result := Some c
    done;
    !result
  in
  let pick_reachable target chosen =
    let pool = reachable_pool.Ibuf.arr and len = reachable_pool.Ibuf.len in
    let attempts = ref 0 in
    let result = ref None in
    while !result = None && !attempts < 20 do
      incr attempts;
      let c = pool.(len - 1 - Prng.int g len) in
      if c <> target && not (List.mem c chosen) && not plans.(c).p_dead then
        result := Some c
    done;
    !result
  in
  let pick_callers ?(rooted = false) target k =
    let chosen = ref [] in
    for _ = 1 to k do
      let pick =
        if rooted && Prng.chance g 0.97 then
          match pick_reachable target !chosen with
          | Some c -> Some c
          | None -> pick_any target !chosen
        else pick_any target !chosen
      in
      match pick with
      | Some c ->
        chosen := c :: !chosen;
        if rooted && Hashtbl.mem reachable c && not (Hashtbl.mem reachable target)
        then begin
          Hashtbl.replace reachable target ();
          Ibuf.push reachable_pool target
        end
      | None -> ()
    done;
    !chosen
  in
  let add_stmt i s =
    if Prng.bool g then bodies.(i) := s :: !(bodies.(i))
    else bodies.(i) := !(bodies.(i)) @ [ s ]
  in
  Array.iteri
    (fun i (p : plan) ->
      List.iter
        (fun c -> add_stmt c (Ir.Call (Ir.Local p.p_name)))
        (pick_callers ~rooted:true i p.p_call_refs);
      List.iter
        (fun c -> add_stmt c (Ir.Tail_call_site p.p_name))
        (pick_callers ~rooted:true i p.p_tail_refs);
      List.iter
        (fun c ->
          let s =
            if Prng.bool g then Ir.Call_via_pointer p.p_name
            else Ir.Store_fn_pointer p.p_name
          in
          add_stmt c s)
        (pick_callers i p.p_addr_refs))
    plans;
  (* Shared parts: one sibling jumps into the part fragment. *)
  List.iter
    (fun owner ->
      match pick_callers owner 1 with
      | [ sibling ] -> add_stmt sibling (Ir.Jump_to_part plans.(owner).p_name)
      | _ -> ())
    !shared_part_owners;
  let funcs =
    Array.to_list
      (Array.mapi
         (fun i (p : plan) ->
           {
             Ir.name = p.p_name;
             linkage = (if p.p_exported then Ir.Exported else Ir.Static);
             address_taken = p.p_addr_taken;
             no_endbr = p.p_no_endbr;
             dead = p.p_dead;
             fate = fates.(i);
             body = !(bodies.(i));
           })
         plans)
  in
  { Ir.prog_name = Printf.sprintf "%s_%03d" profile.suite index; lang; funcs; extra_imports = [] }
