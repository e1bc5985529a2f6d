module Arch = Cet_x86.Arch
module Insn = Cet_x86.Insn
module Asm = Cet_x86.Asm
module Encoder = Cet_x86.Encoder
module Reg = Cet_x86.Register

type label = Asm.label
type lsda_site = { try_start : label; try_end : label; landing : label }

type fragment = {
  frag_name : string;
  parent : string option;
  is_function : bool;
  has_symbol : bool;
  global : bool;
  start : label;
  stop : label;
  lsda_sites : lsda_site list;
  handler_count : int;
  tables : (label * label list) list;
}

type output = { text : Asm.t; fragments : fragment list; labels : int }

(* ---- The prepared program ------------------------------------------ *)

(* A fragment's symbol name, its first label, and the seed of the LCG
   that varies its instruction selection. *)
type frag = { name : string; label : label; rolling : int }

let frag name label = { name; label; rolling = Hashtbl.hash name land 0xFFFFFF }

type fate = Whole | Cold of frag * Ir.stmt list | Part of frag * Ir.stmt list

type func = {
  main : frag;
  exported : bool;
  address_taken : bool;
  no_endbr : bool;
  seed : int;  (* picks the frame shape *)
  leaf : bool;  (* no call anywhere, split-off code included *)
  uses_pic : bool;  (* the body needs the GOT base in ebx *)
  body : Ir.stmt list;
  fate : fate;
}

(* Labels: import [i] is label [i], and each function, [.cold] and
   [.part.0] fragment, and fragment a link may add ([_start], the PC
   thunks) has one; [first_fresh] is the first label lowering allocates.
   A statement names its callee, so lowering looks the name up in
   [entries] (a function's entry), [plt] (an import's PLT entry) or
   [parts] (a function's [.part.0] fragment).  No table is written once
   [prepare] returns, so domains may read them at once. *)
type prepared = {
  prog_name : string;
  lang : Ir.lang;
  imports : string list;
  funcs : func list;
  entries : (string, label) Hashtbl.t;
  plt : (string, label) Hashtbl.t;
  parts : (string, label) Hashtbl.t;
  any_pic : bool;
  main_entry : label;
  begin_catch : label;  (* present whenever a [Try_catch] is *)
  end_catch : label;
  start : frag;
  thunk_ax : frag;
  thunk_bx : frag;
  first_fresh : int;
}

let prog_name pp = pp.prog_name
let lang pp = pp.lang
let imports pp = pp.imports

(* [__libc_start_main] leads the imports, so its PLT entry is label 0. *)
let libc_start_main = 0

let rec stmts_have_calls stmts =
  List.exists
    (fun s ->
      match s with
      | Ir.Call _ | Ir.Call_via_pointer _ | Ir.Indirect_return_call _
      | Ir.Tail_call_site _ | Ir.Jump_to_part _ | Ir.Try_catch _ ->
        true
      | Ir.Compute _ | Ir.Store_fn_pointer _ -> false
      | Ir.If_else (a, b) -> stmts_have_calls a || stmts_have_calls b
      | Ir.Loop b -> stmts_have_calls b
      | Ir.Switch cs -> List.exists stmts_have_calls cs)
    stmts

let rec stmts_use_pic stmts =
  List.exists
    (fun s ->
      match s with
      | Ir.Store_fn_pointer _ | Ir.Call_via_pointer _ | Ir.Switch _
      | Ir.Indirect_return_call _ ->
        true
      | Ir.Call _ | Ir.Compute _ | Ir.Tail_call_site _ | Ir.Jump_to_part _ -> false
      | Ir.If_else (a, b) -> stmts_use_pic a || stmts_use_pic b
      | Ir.Loop b -> stmts_use_pic b
      | Ir.Try_catch (b, hs) -> stmts_use_pic b || List.exists stmts_use_pic hs)
    stmts

let prepare (p : Ir.program) =
  (match Ir.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Codegen.prepare: " ^ e));
  let imports = "__libc_start_main" :: Ir.collect_imports p in
  let next = ref 0 in
  let fresh () =
    let l = !next in
    incr next;
    l
  in
  let plt = Hashtbl.create 32 in
  List.iter
    (fun name ->
      let l = fresh () in
      if not (Hashtbl.mem plt name) then Hashtbl.add plt name l)
    imports;
  let import name = Option.value (Hashtbl.find_opt plt name) ~default:(-1) in
  let entries = Hashtbl.create 256 and parts = Hashtbl.create 16 in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        let main = frag f.name (fresh ()) in
        Hashtbl.add entries f.name main.label;
        let fate =
          match f.fate with
          | Ir.Keep_whole -> Whole
          | Ir.Split_cold b -> Cold (frag (f.name ^ ".cold") (fresh ()), b)
          | Ir.Split_part { part_body; _ } ->
            let part = frag (f.name ^ ".part.0") (fresh ()) in
            Hashtbl.add parts f.name part.label;
            Part (part, part_body)
        in
        {
          main;
          exported = f.linkage = Ir.Exported;
          address_taken = f.address_taken;
          no_endbr = f.no_endbr;
          seed = Hashtbl.hash f.name land 0xFFFF;
          leaf = not (stmts_have_calls (Ir.func_stmts f));
          uses_pic = stmts_use_pic f.body;
          body = f.body;
          fate;
        })
      p.funcs
  in
  let start = frag "_start" (fresh ()) in
  let thunk_ax = frag "__x86.get_pc_thunk.ax" (fresh ()) in
  let thunk_bx = frag "__x86.get_pc_thunk.bx" (fresh ()) in
  {
    prog_name = p.prog_name;
    lang = p.lang;
    imports;
    funcs;
    entries;
    plt;
    parts;
    any_pic = List.exists (fun f -> f.uses_pic) funcs;
    main_entry = Hashtbl.find entries "main";
    begin_catch = import "__cxa_begin_catch";
    end_catch = import "__cxa_end_catch";
    start;
    thunk_ax;
    thunk_bx;
    first_fresh = !next;
  }

(* ---- Lowering ------------------------------------------------------- *)

(* Stack-slot forms, built once: their memory operands are not constants. *)
let store_sp8 = Insn.Mov_mr (Insn.mem_base Reg.RSP 8, Reg.RAX)
let arg_slot_x86 = Insn.mem_base Reg.RSP 4
let pc_thunk_body = Insn.Mov_rm (Reg.RBX, Insn.mem_base Reg.RSP 0)

(* ALU filler: straight-line work that never touches control flow.  The
   mix approximates compiler output: moves and adds dominate, with the
   occasional shift, extension, flag materialisation or cmov.  Form [k]
   has [filler_variants.(k)] instructions, one per value [v] of its
   immediate. *)
let filler_insn k v =
  match k with
  | 0 -> Insn.Mov_ri (Reg.RAX, 0x100 + v)
  | 1 -> Insn.Add_rr (Reg.RAX, Reg.RCX)
  | 2 -> Insn.Xor_rr (Reg.RDX, Reg.RDX)
  | 3 -> Insn.Add_ri (Reg.RAX, 1 + v)
  | 4 -> Insn.Mov_rr (Reg.RCX, Reg.RAX)
  | 5 -> Insn.Sub_ri (Reg.RCX, 1 + v)
  | 6 -> Insn.Test_rr (Reg.RAX, Reg.RAX)
  | 7 -> Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RSP 8)
  | 8 -> Insn.Mov_mr (Insn.mem_base Reg.RSP 16, Reg.RAX)
  | 9 -> Insn.And_ri (Reg.RAX, (1 lsl (1 + v)) - 1)
  | 10 -> Insn.Or_rr (Reg.RDX, Reg.RAX)
  | 11 -> Insn.Inc Reg.RAX
  | 12 -> Insn.Dec Reg.RCX
  | 13 -> Insn.Shl_ri (Reg.RAX, 1 + v)
  | 14 -> Insn.Sar_ri (Reg.RDX, 1 + v)
  | 15 -> Insn.Imul_rr (Reg.RAX, Reg.RCX)
  | 16 -> Insn.Movzx_b (Reg.RDX, Reg.RAX)
  | _ -> Insn.Cmov (Insn.NE, Reg.RAX, Reg.RDX)

let filler_variants = [| 4096; 1; 1; 126; 1; 126; 1; 1; 1; 7; 1; 1; 1; 4; 4; 1; 1; 1 |]

(* Every filler instruction of one architecture, encoded once.  No
   immediate here changes its form's length, so form [k]'s variants are
   [len.(k)] bytes each, end to end from [off.(k)]. *)
type filler_table = { bytes : string; off : int array; len : int array }

let filler_table arch =
  let n = Array.length filler_variants in
  let buf = Buffer.create 32768 and off = Array.make n 0 and len = Array.make n 0 in
  Array.iteri
    (fun k variants ->
      off.(k) <- Buffer.length buf;
      for v = 0 to variants - 1 do
        let e = Encoder.encode arch (filler_insn k v) in
        if v = 0 then len.(k) <- String.length e else assert (String.length e = len.(k));
        Buffer.add_string buf e
      done)
    filler_variants;
  { bytes = Buffer.contents buf; off; len }

let filler_x64 = filler_table Arch.X64
let filler_x86 = filler_table Arch.X86
let filler_of = function Arch.X64 -> filler_x64 | Arch.X86 -> filler_x86
let[@inline] filler_pos t k v = t.off.(k) + (v * t.len.(k))

let filler_entries arch =
  let t = filler_of arch in
  List.concat
    (List.mapi
       (fun k variants ->
         List.init variants (fun v ->
             (filler_insn k v, String.sub t.bytes (filler_pos t k v) t.len.(k))))
       (Array.to_list filler_variants))

(* Per-fragment lowering context.  [rolling] is a cheap deterministic LCG
   used to vary instruction selection the way different source bodies
   would, seeded from the fragment name. *)
type fctx = {
  opts : Options.t;
  pp : prepared;
  next : int ref;  (* the link's next unused label *)
  fill : filler_table;
  name : string;
  start : label;
  mutable rolling : int;
  mutable out : Asm.t;  (* the fragment, or the handler body being lowered *)
  tail : Asm.t;  (* landing pads, appended after the epilogue *)
  mutable sites : lsda_site list;
  mutable handlers : int;
  mutable tables : (label * label list) list;
  epilogue : Insn.t list;  (* for tail-call sites *)
}

(* Inlined, so each draw divides by a constant. *)
let[@inline] roll ctx bound =
  ctx.rolling <- (ctx.rolling * 1103515245) + 12345 land 0x3FFFFFFF;
  (ctx.rolling lsr 7) mod bound

let fresh ctx =
  let l = !(ctx.next) in
  ctx.next := l + 1;
  l

let ins ctx i = Asm.ins ctx.out i
let entry ctx f = Hashtbl.find ctx.pp.entries f
let plt ctx i = Hashtbl.find ctx.pp.plt i
let x86 ctx = ctx.opts.Options.arch = Arch.X86
let cet ctx = ctx.opts.Options.cf_protection <> Options.Cf_none

(* Draws one of the 18 forms, then its variant, dividing by
   [filler_variants]'s counts as constants, and copies the bytes
   [filler_table] encoded for them. *)
let filler ctx n =
  let t = ctx.fill in
  for _ = 1 to n do
    let k = roll ctx 18 in
    let v =
      match k with
      | 0 -> roll ctx 4096
      | 3 | 5 -> roll ctx 126
      | 9 -> roll ctx 7
      | 13 | 14 -> roll ctx 4
      | _ -> 0
    in
    Asm.bytes ctx.out t.bytes ~pos:(filler_pos t k v) ~len:t.len.(k)
  done

let call_cleanup ctx pushed = if x86 ctx && pushed then ins ctx (Insn.Add_ri (Reg.RSP, 4))

let emit_call ctx target =
  let with_arg = roll ctx 3 = 0 in
  let pushed =
    if with_arg then
      if x86 ctx then begin
        ins ctx (Insn.Push_imm (roll ctx 1000));
        true
      end
      else begin
        ins ctx (Insn.Mov_ri (Reg.RDI, roll ctx 1000));
        false
      end
    else false
  in
  Asm.call ctx.out target;
  call_cleanup ctx pushed

(* The head of a landing pad: an end-branch for the unwinder's indirect
   jump, then the exception object kept. *)
let landing_pad ctx lp =
  Asm.define ctx.tail lp;
  if cet ctx then Asm.ins ctx.tail Insn.Endbr;
  Asm.ins ctx.tail (Insn.Mov_rr (Reg.RBX, Reg.RAX))

let rec lower_stmt ctx stmt =
  match stmt with
  | Ir.Compute n -> filler ctx n
  | Ir.Call (Ir.Local f) -> emit_call ctx (entry ctx f)
  | Ir.Call (Ir.Import i) -> emit_call ctx (plt ctx i)
  | Ir.Call_via_pointer f ->
    Asm.lea ctx.out Reg.RAX (entry ctx f);
    ins ctx (Insn.Call_reg Reg.RAX)
  | Ir.Store_fn_pointer f ->
    if x86 ctx then Asm.mov_mi ctx.out arg_slot_x86 (entry ctx f)
    else begin
      Asm.lea ctx.out Reg.RAX (entry ctx f);
      ins ctx store_sp8
    end
  | Ir.Indirect_return_call s ->
    (* Fig. 2a: the end-branch lands immediately after the call so the
       indirect return of longjmp has a valid target. *)
    if x86 ctx then ins ctx (Insn.Push_imm (0x404000 + roll ctx 256))
    else ins ctx (Insn.Mov_ri (Reg.RDI, 0x404000 + roll ctx 256));
    Asm.call ctx.out (plt ctx s);
    if cet ctx then ins ctx Insn.Endbr;
    call_cleanup ctx (x86 ctx);
    ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
    let l = fresh ctx in
    Asm.jcc ctx.out Insn.NE l;
    filler ctx 1;
    Asm.define ctx.out l
  | Ir.If_else (a, b) ->
    if roll ctx 5 = 0 then begin
      (* Bool materialisation before the branch, as compilers emit for
         compound conditions. *)
      ins ctx (Insn.Cmp_rr (Reg.RAX, Reg.RDX));
      ins ctx (Insn.Setcc (Insn.L, Reg.RCX));
      ins ctx (Insn.Movzx_b (Reg.RCX, Reg.RCX))
    end;
    ins ctx (Insn.Cmp_ri (Reg.RAX, roll ctx 64));
    if b = [] then begin
      let join = fresh ctx in
      Asm.jcc ctx.out Insn.E join;
      lower_stmts ctx a;
      Asm.define ctx.out join
    end
    else begin
      let lelse = fresh ctx and join = fresh ctx in
      Asm.jcc ctx.out Insn.E lelse;
      lower_stmts ctx a;
      Asm.jmp ctx.out join;
      Asm.define ctx.out lelse;
      lower_stmts ctx b;
      Asm.define ctx.out join
    end
  | Ir.Loop body ->
    if ctx.opts.Options.opt = Options.O0 then begin
      (* Unrotated loop: forward jump to the condition, backward
         conditional edge. *)
      let lcond = fresh ctx and lbody = fresh ctx in
      Asm.jmp ctx.out lcond;
      Asm.define ctx.out lbody;
      lower_stmts ctx body;
      Asm.define ctx.out lcond;
      ins ctx (Insn.Cmp_ri (Reg.RAX, roll ctx 64));
      Asm.jcc ctx.out Insn.NE lbody
    end
    else begin
      (* Rotated loop: no unconditional jump. *)
      let lbody = fresh ctx in
      ins ctx (Insn.Mov_ri (Reg.RCX, 1 + roll ctx 100));
      Asm.define ctx.out lbody;
      lower_stmts ctx body;
      ins ctx (Insn.Sub_ri (Reg.RCX, 1));
      Asm.jcc ctx.out Insn.NE lbody
    end
  | Ir.Switch cases ->
    let n = List.length cases in
    assert (n > 0);
    let jt = fresh ctx and lend = fresh ctx and ldef = fresh ctx in
    let case_labels = List.map (fun _ -> fresh ctx) cases in
    ins ctx (Insn.Cmp_ri (Reg.RAX, n - 1));
    Asm.jcc ctx.out Insn.A ldef;
    (if x86 ctx then Asm.jmp_table ctx.out ~table:jt ~index:Reg.RAX ~scale:4 ~notrack:true
     else begin
       ins ctx (Insn.Mov_rr (Reg.RCX, Reg.RAX));
       Asm.lea ctx.out Reg.RDX jt;
       ins ctx
         (Insn.Mov_rm (Reg.RAX, Insn.mem_index ~base:Reg.RDX ~index:Reg.RCX ~scale:8 ~disp:0));
       ins ctx (Insn.Jmp_reg { reg = Reg.RAX; notrack = true })
     end);
    (* Hand-written-assembly style (§VI): the jump table itself sits in
       .text, right behind the dispatch — the data-in-code case that breaks
       plain linear sweep. *)
    if ctx.opts.Options.jump_tables_in_text then begin
      Asm.define ctx.out jt;
      Asm.table ctx.out ~entry_size:(Arch.ptr_size ctx.opts.Options.arch) case_labels
    end
    else ctx.tables <- (jt, case_labels) :: ctx.tables;
    List.iter2
      (fun l case ->
        Asm.define ctx.out l;
        lower_stmts ctx case;
        Asm.jmp ctx.out lend)
      case_labels cases;
    Asm.define ctx.out ldef;
    filler ctx 1;
    Asm.define ctx.out lend
  | Ir.Try_catch (body, handlers) ->
    let try_start = fresh ctx and try_end = fresh ctx in
    let cont = fresh ctx and lp = fresh ctx in
    Asm.define ctx.out try_start;
    lower_stmts ctx body;
    Asm.define ctx.out try_end;
    Asm.define ctx.out cont;
    (* The landing pad lives past the epilogue, Fig. 2b style: an
       end-branch headed catch block reached only by the unwinder's
       indirect jump. *)
    landing_pad ctx lp;
    Asm.call ctx.tail ctx.pp.begin_catch;
    (match handlers with
    | [] -> ()
    | first :: rest ->
      let rest_labels = List.map (fun _ -> fresh ctx) rest in
      (* Dispatch on the exception filter for secondary catch clauses. *)
      List.iteri
        (fun i l ->
          Asm.ins ctx.tail (Insn.Cmp_ri (Reg.RDX, i + 2));
          Asm.jcc ctx.tail Insn.E l)
        rest_labels;
      catch_block ctx first ~cont;
      List.iter2
        (fun l h ->
          Asm.define ctx.tail l;
          catch_block ctx h ~cont)
        rest_labels rest);
    ctx.sites <- { try_start; try_end; landing = lp } :: ctx.sites;
    ctx.handlers <- ctx.handlers + List.length handlers;
    (* Clang's inliner clones landing pads more readily than GCC, which is
       why its exception share of end-branch locations is higher in
       Table I.  Model: every other try block gets an inlined duplicate of
       its guarded region with its own landing pad. *)
    if ctx.opts.Options.compiler = Options.Clang
       && ctx.opts.Options.opt <> Options.O0 && roll ctx 2 = 0
    then begin
      let ts2 = fresh ctx and te2 = fresh ctx and lp2 = fresh ctx in
      Asm.define ctx.out ts2;
      filler ctx 2;
      Asm.define ctx.out te2;
      landing_pad ctx lp2;
      Asm.call ctx.tail ctx.pp.end_catch;
      Asm.jmp ctx.tail cont;
      ctx.sites <- { try_start = ts2; try_end = te2; landing = lp2 } :: ctx.sites
    end
  | Ir.Tail_call_site f ->
    if Options.tail_calls_enabled ctx.opts then begin
      let skip = fresh ctx in
      ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
      Asm.jcc ctx.out Insn.E skip;
      List.iter (ins ctx) ctx.epilogue;
      Asm.jmp ctx.out (entry ctx f);
      Asm.define ctx.out skip
    end
    else emit_call ctx (entry ctx f)
  | Ir.Jump_to_part f ->
    if Options.cold_splitting_enabled ctx.opts then begin
      let skip = fresh ctx in
      ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
      Asm.jcc ctx.out Insn.E skip;
      List.iter (ins ctx) ctx.epilogue;
      Asm.jmp ctx.out (Hashtbl.find ctx.pp.parts f);
      Asm.define ctx.out skip
    end
    else emit_call ctx (entry ctx f)

and lower_stmts ctx stmts = List.iter (lower_stmt ctx) stmts

(* A catch block goes to the tail.  Its body is lowered into a buffer of
   its own, so the landing pads nested in it reach the tail first. *)
and catch_block ctx h ~cont =
  let out = ctx.out in
  let body = Asm.side out in
  ctx.out <- body;
  lower_stmts ctx h;
  ctx.out <- out;
  Asm.append ctx.tail body;
  Asm.call ctx.tail ctx.pp.end_catch;
  Asm.jmp ctx.tail cont

(* Prologue/epilogue pair for a function body under the current options.
   O0 keeps the frame pointer; higher levels drop it and, for leaves, may
   use no stack adjustment at all. *)
let frame_shape opts ~leaf ~seed =
  let open Options in
  match opts.opt with
  | O0 ->
    let n = 0x20 + (seed mod 4 * 8) in
    ( [ Insn.Push Reg.RBP; Insn.Mov_rr (Reg.RBP, Reg.RSP); Insn.Sub_ri (Reg.RSP, n) ],
      [ Insn.Leave ] )
  | O1 | O2 | O3 | Os | Ofast ->
    if leaf && seed mod 3 = 0 then ([], [])
    else if seed mod 2 = 0 then
      let n = 0x18 + (seed mod 3 * 8) in
      ([ Insn.Sub_ri (Reg.RSP, n) ], [ Insn.Add_ri (Reg.RSP, n) ])
    else
      let n = 0x10 + (seed mod 3 * 8) in
      ( [ Insn.Push Reg.RBX; Insn.Sub_ri (Reg.RSP, n) ],
        [ Insn.Add_ri (Reg.RSP, n); Insn.Pop Reg.RBX ] )

let wants_endbr opts f =
  (not f.no_endbr)
  &&
  match opts.Options.cf_protection with
  | Options.Cf_none -> false
  | Options.Cf_full -> f.exported || f.address_taken || f.main.name = "main"
  | Options.Cf_manual ->
    (* -mmanual-endbr: only genuine indirect-branch targets are marked
       (the programmer knows which addresses escape). *)
    f.address_taken || f.main.name = "main"

(* A fragment starts at its label, with a context of its own, so its
   instruction selection does not depend on when it is lowered. *)
let open_fragment opts pp next text (fr : frag) epilogue =
  Asm.define text fr.label;
  {
    opts;
    pp;
    next;
    fill = filler_of opts.Options.arch;
    name = fr.name;
    start = fr.label;
    rolling = fr.rolling;
    out = text;
    tail = Asm.side text;
    sites = [];
    handlers = 0;
    tables = [];
    epilogue;
  }

(* Closes the fragment: its landing pads go after its last instruction. *)
let finish ?parent ?(has_symbol = true) ctx ~global =
  Asm.append ctx.out ctx.tail;
  let stop = fresh ctx in
  Asm.define ctx.out stop;
  {
    frag_name = ctx.name;
    parent;
    is_function = parent = None;
    has_symbol;
    global;
    start = ctx.start;
    stop;
    lsda_sites = List.rev ctx.sites;
    handler_count = ctx.handlers;
    tables = List.rev ctx.tables;
  }

(* A function's main fragment.  A [.cold] fragment's body and the label
   it returns to are handed to [defer_cold], since it goes after every
   main fragment; a [.part.0] fragment follows the main one. *)
let lower_function opts pp next text ~pic (f : func) ~defer_cold =
  let split = Options.cold_splitting_enabled opts in
  let prologue, epilogue = frame_shape opts ~leaf:f.leaf ~seed:f.seed in
  Asm.align text (Options.function_alignment opts);
  (* The context's epilogue excludes [ret]: tail-call sites splice it in
     front of their [jmp]. *)
  let ctx = open_fragment opts pp next text f.main epilogue in
  if wants_endbr opts f then ins ctx Insn.Endbr;
  List.iter (ins ctx) prologue;
  if pic && f.uses_pic then begin
    Asm.call text pp.thunk_bx.label;
    ins ctx (Insn.Add_ri (Reg.RBX, 0x2000 + (f.seed land 0xFFF)))
  end;
  lower_stmts ctx f.body;
  (* Split fates. *)
  let part =
    match f.fate with
    | Whole -> None
    | Cold (cold, cold_body) ->
      if split then begin
        let back = fresh ctx in
        ins ctx (Insn.Cmp_ri (Reg.RDX, 1));
        Asm.jcc text Insn.E cold.label;
        Asm.define text back;
        defer_cold (f, cold, cold_body, back)
      end
      else begin
        let skip = fresh ctx in
        ins ctx (Insn.Cmp_ri (Reg.RDX, 1));
        Asm.jcc text Insn.NE skip;
        lower_stmts ctx cold_body;
        Asm.define text skip
      end;
      None
    | Part (part, part_body) ->
      if split then begin
        Asm.call text part.label;
        Some (part, part_body)
      end
      else begin
        lower_stmts ctx part_body;
        None
      end
  in
  List.iter (ins ctx) epilogue;
  ins ctx Insn.Ret;
  let main = finish ctx ~global:f.exported in
  match part with
  | None -> [ main ]
  | Some (part, body) ->
    let prologue, epilogue = frame_shape opts ~leaf:false ~seed:(f.seed + 1) in
    let ctx = open_fragment opts pp next text part epilogue in
    List.iter (ins ctx) prologue;
    lower_stmts ctx body;
    List.iter (ins ctx) epilogue;
    ins ctx Insn.Ret;
    [ main; finish ~parent:f.main.name ctx ~global:false ]

let lower_cold opts pp next text (f, cold, body, back) =
  let ctx = open_fragment opts pp next text cold [] in
  lower_stmts ctx body;
  Asm.jmp text back;
  finish ~parent:f.main.name ctx ~global:false

let start_fragment opts pp next text ~use_thunk_ax =
  Asm.align text 16;
  let ctx = open_fragment opts pp next text pp.start [] in
  if cet ctx then ins ctx Insn.Endbr;
  if use_thunk_ax then Asm.call text pp.thunk_ax.label;
  ins ctx (Insn.Xor_rr (Reg.RBP, Reg.RBP));
  if x86 ctx then Asm.push text pp.main_entry else Asm.lea text Reg.RDI pp.main_entry;
  Asm.call text libc_start_main;
  ins ctx Insn.Hlt;
  finish ctx ~global:true

let thunk_fragment opts pp next text fr ~has_symbol =
  Asm.align text 16;
  let ctx = open_fragment opts pp next text fr [] in
  ins ctx pc_thunk_body;
  ins ctx Insn.Ret;
  finish ~has_symbol ctx ~global:false

let lower opts pp ~base =
  let next = ref pp.first_fresh in
  let text = Asm.create ~arch:opts.Options.arch ~base in
  let pic = opts.Options.arch = Arch.X86 && opts.Options.pie in
  let start = start_fragment opts pp next text ~use_thunk_ax:pic in
  (* Layout order: _start, the PC thunks, every main fragment (each
     followed by its .part.0), then every .cold fragment. *)
  let fragments = ref [ start ] in
  let add frag = fragments := frag :: !fragments in
  if pic then begin
    add (thunk_fragment opts pp next text pp.thunk_ax ~has_symbol:false);
    if pp.any_pic then add (thunk_fragment opts pp next text pp.thunk_bx ~has_symbol:true)
  end;
  let colds = ref [] in
  let defer_cold c = colds := c :: !colds in
  List.iter
    (fun f -> List.iter add (lower_function opts pp next text ~pic f ~defer_cold))
    pp.funcs;
  List.iter (fun c -> add (lower_cold opts pp next text c)) (List.rev !colds);
  { text; fragments = List.rev !fragments; labels = !next }
