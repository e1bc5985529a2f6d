module Arch = Cet_x86.Arch
module Insn = Cet_x86.Insn
module Asm = Cet_x86.Asm
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

let imports (p : Ir.program) = "__libc_start_main" :: Ir.collect_imports p
let thunk_bx = "__x86.get_pc_thunk.bx"
let thunk_ax = "__x86.get_pc_thunk.ax"

(* A program's labels: [next] is the first unused one, [names] holds the
   labels that cross fragments and [plt] the imports' PLT entries. *)
type labels = {
  mutable next : int;
  names : (string, label) Hashtbl.t;
  plt : (string, label) Hashtbl.t;
}

let new_label ls =
  let l = ls.next in
  ls.next <- l + 1;
  l

let named ls name =
  match Hashtbl.find_opt ls.names name with
  | Some l -> l
  | None ->
    let l = new_label ls in
    Hashtbl.add ls.names name l;
    l

(* Per-fragment lowering context.  [rolling] is a cheap deterministic LCG
   used to vary instruction selection the way different source bodies
   would, keyed off the fragment name. *)
type fctx = {
  opts : Options.t;
  ls : labels;
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

let roll ctx bound =
  ctx.rolling <- (ctx.rolling * 1103515245) + 12345 land 0x3FFFFFFF;
  (ctx.rolling lsr 7) mod bound

let fresh ctx = new_label ctx.ls
let ins ctx i = Asm.ins ctx.out i
let import ctx name = Hashtbl.find ctx.ls.plt name
let x86 ctx = ctx.opts.Options.arch = Arch.X86
let cet ctx = ctx.opts.Options.cf_protection <> Options.Cf_none

(* Stack-slot forms, built once: their memory operands are not constants. *)
let load_sp8 = Insn.Mov_rm (Reg.RAX, Insn.mem_base Reg.RSP 8)
let store_sp16 = Insn.Mov_mr (Insn.mem_base Reg.RSP 16, Reg.RAX)
let store_sp8 = Insn.Mov_mr (Insn.mem_base Reg.RSP 8, Reg.RAX)
let arg_slot_x86 = Insn.mem_base Reg.RSP 4
let pc_thunk_body = Insn.Mov_rm (Reg.RBX, Insn.mem_base Reg.RSP 0)

(* ALU filler: straight-line work that never touches control flow.  The
   mix approximates compiler output: moves and adds dominate, with the
   occasional shift, extension, flag materialisation or cmov. *)
let filler ctx n =
  for _ = 1 to n do
    let i =
      match roll ctx 18 with
      | 0 -> Insn.Mov_ri (Reg.RAX, 0x100 + roll ctx 4096)
      | 1 -> Insn.Add_rr (Reg.RAX, Reg.RCX)
      | 2 -> Insn.Xor_rr (Reg.RDX, Reg.RDX)
      | 3 -> Insn.Add_ri (Reg.RAX, 1 + roll ctx 126)
      | 4 -> Insn.Mov_rr (Reg.RCX, Reg.RAX)
      | 5 -> Insn.Sub_ri (Reg.RCX, 1 + roll ctx 126)
      | 6 -> Insn.Test_rr (Reg.RAX, Reg.RAX)
      | 7 -> load_sp8
      | 8 -> store_sp16
      | 9 -> Insn.And_ri (Reg.RAX, (1 lsl (1 + roll ctx 7)) - 1)
      | 10 -> Insn.Or_rr (Reg.RDX, Reg.RAX)
      | 11 -> Insn.Inc Reg.RAX
      | 12 -> Insn.Dec Reg.RCX
      | 13 -> Insn.Shl_ri (Reg.RAX, 1 + roll ctx 4)
      | 14 -> Insn.Sar_ri (Reg.RDX, 1 + roll ctx 4)
      | 15 -> Insn.Imul_rr (Reg.RAX, Reg.RCX)
      | 16 -> Insn.Movzx_b (Reg.RDX, Reg.RAX)
      | _ -> Insn.Cmov (Insn.NE, Reg.RAX, Reg.RDX)
    in
    ins ctx i
  done

(* Materialise a code address into [reg]: RIP-relative lea on x86-64,
   absolute mov on x86. *)
let addr_of ctx reg f = Asm.lea ctx.out reg (named ctx.ls f)

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
  | Ir.Call (Ir.Local f) -> emit_call ctx (named ctx.ls f)
  | Ir.Call (Ir.Import i) -> emit_call ctx (import ctx i)
  | Ir.Call_via_pointer f ->
    addr_of ctx Reg.RAX f;
    ins ctx (Insn.Call_reg Reg.RAX)
  | Ir.Store_fn_pointer f ->
    if x86 ctx then Asm.mov_mi ctx.out arg_slot_x86 (named ctx.ls f)
    else begin
      addr_of ctx Reg.RAX f;
      ins ctx store_sp8
    end
  | Ir.Indirect_return_call s ->
    (* Fig. 2a: the end-branch lands immediately after the call so the
       indirect return of longjmp has a valid target. *)
    if x86 ctx then ins ctx (Insn.Push_imm (0x404000 + roll ctx 256))
    else ins ctx (Insn.Mov_ri (Reg.RDI, 0x404000 + roll ctx 256));
    Asm.call ctx.out (import ctx s);
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
    Asm.call ctx.tail (import ctx "__cxa_begin_catch");
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
      Asm.call ctx.tail (import ctx "__cxa_end_catch");
      Asm.jmp ctx.tail cont;
      ctx.sites <- { try_start = ts2; try_end = te2; landing = lp2 } :: ctx.sites
    end
  | Ir.Tail_call_site f ->
    if Options.tail_calls_enabled ctx.opts then begin
      let skip = fresh ctx in
      ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
      Asm.jcc ctx.out Insn.E skip;
      List.iter (ins ctx) ctx.epilogue;
      Asm.jmp ctx.out (named ctx.ls f);
      Asm.define ctx.out skip
    end
    else emit_call ctx (named ctx.ls f)
  | Ir.Jump_to_part f ->
    if Options.cold_splitting_enabled ctx.opts then begin
      let skip = fresh ctx in
      ins ctx (Insn.Test_rr (Reg.RAX, Reg.RAX));
      Asm.jcc ctx.out Insn.E skip;
      List.iter (ins ctx) ctx.epilogue;
      Asm.jmp ctx.out (named ctx.ls (f ^ ".part.0"));
      Asm.define ctx.out skip
    end
    else emit_call ctx (named ctx.ls f)

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
  Asm.call ctx.tail (import ctx "__cxa_end_catch");
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

let wants_endbr opts (f : Ir.func) =
  (not f.no_endbr)
  &&
  match opts.Options.cf_protection with
  | Options.Cf_none -> false
  | Options.Cf_full -> f.linkage = Ir.Exported || f.address_taken || f.name = "main"
  | Options.Cf_manual ->
    (* -mmanual-endbr: only genuine indirect-branch targets are marked
       (the programmer knows which addresses escape). *)
    f.address_taken || f.name = "main"

(* A fragment starts at the label of its name, with a context of its
   own, so its instruction selection does not depend on when it is
   lowered. *)
let open_fragment opts ls text name epilogue =
  let start = named ls name in
  Asm.define text start;
  {
    opts;
    ls;
    name;
    start;
    rolling = Hashtbl.hash name land 0xFFFFFF;
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
let lower_function opts ls text ~pic (f : Ir.func) ~defer_cold =
  let seed = Hashtbl.hash f.name land 0xFFFF in
  let split = Options.cold_splitting_enabled opts in
  let leaf = not (stmts_have_calls (Ir.func_stmts f)) in
  let prologue, epilogue = frame_shape opts ~leaf ~seed in
  Asm.align text (Options.function_alignment opts);
  (* The context's epilogue excludes [ret]: tail-call sites splice it in
     front of their [jmp]. *)
  let ctx = open_fragment opts ls text f.name epilogue in
  if wants_endbr opts f then ins ctx Insn.Endbr;
  List.iter (ins ctx) prologue;
  if pic && stmts_use_pic f.body then begin
    Asm.call text (named ls thunk_bx);
    ins ctx (Insn.Add_ri (Reg.RBX, 0x2000 + (seed land 0xFFF)))
  end;
  lower_stmts ctx f.body;
  (* Split fates. *)
  let part =
    match f.fate with
    | Ir.Keep_whole -> None
    | Ir.Split_cold cold_body ->
      if split then begin
        let back = fresh ctx in
        ins ctx (Insn.Cmp_ri (Reg.RDX, 1));
        Asm.jcc text Insn.E (named ls (f.name ^ ".cold"));
        Asm.define text back;
        defer_cold (f.name, cold_body, back)
      end
      else begin
        let skip = fresh ctx in
        ins ctx (Insn.Cmp_ri (Reg.RDX, 1));
        Asm.jcc text Insn.NE skip;
        lower_stmts ctx cold_body;
        Asm.define text skip
      end;
      None
    | Ir.Split_part { part_body; _ } ->
      if split then begin
        Asm.call text (named ls (f.name ^ ".part.0"));
        Some part_body
      end
      else begin
        lower_stmts ctx part_body;
        None
      end
  in
  List.iter (ins ctx) epilogue;
  ins ctx Insn.Ret;
  let main = finish ctx ~global:(f.linkage = Ir.Exported) in
  match part with
  | None -> [ main ]
  | Some body ->
    let prologue, epilogue = frame_shape opts ~leaf:false ~seed:(seed + 1) in
    let ctx = open_fragment opts ls text (f.name ^ ".part.0") epilogue in
    List.iter (ins ctx) prologue;
    lower_stmts ctx body;
    List.iter (ins ctx) epilogue;
    ins ctx Insn.Ret;
    [ main; finish ~parent:f.name ctx ~global:false ]

let lower_cold opts ls text (parent, body, back) =
  let ctx = open_fragment opts ls text (parent ^ ".cold") [] in
  lower_stmts ctx body;
  Asm.jmp text back;
  finish ~parent ctx ~global:false

let start_fragment opts ls text ~use_thunk_ax =
  Asm.align text 16;
  let ctx = open_fragment opts ls text "_start" [] in
  if cet ctx then ins ctx Insn.Endbr;
  if use_thunk_ax then Asm.call text (named ls thunk_ax);
  ins ctx (Insn.Xor_rr (Reg.RBP, Reg.RBP));
  if x86 ctx then Asm.push text (named ls "main") else Asm.lea text Reg.RDI (named ls "main");
  Asm.call text (import ctx "__libc_start_main");
  ins ctx Insn.Hlt;
  finish ctx ~global:true

let thunk_fragment opts ls text name ~has_symbol =
  Asm.align text 16;
  let ctx = open_fragment opts ls text name [] in
  ins ctx pc_thunk_body;
  ins ctx Insn.Ret;
  finish ~has_symbol ctx ~global:false

let lower opts (p : Ir.program) ~imports ~base =
  (match Ir.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Codegen.lower: " ^ e));
  let ls = { next = List.length imports; names = Hashtbl.create 256; plt = Hashtbl.create 32 } in
  List.iteri (fun i name -> if not (Hashtbl.mem ls.plt name) then Hashtbl.add ls.plt name i) imports;
  let text = Asm.create ~arch:opts.Options.arch ~base in
  let pic = opts.Options.arch = Arch.X86 && opts.Options.pie in
  let start = start_fragment opts ls text ~use_thunk_ax:pic in
  (* Layout order: _start, the PC thunks, every main fragment (each
     followed by its .part.0), then every .cold fragment. *)
  let fragments = ref [ start ] in
  let add frag = fragments := frag :: !fragments in
  if pic then begin
    add (thunk_fragment opts ls text thunk_ax ~has_symbol:false);
    if List.exists (fun (f : Ir.func) -> stmts_use_pic f.body) p.funcs then
      add (thunk_fragment opts ls text thunk_bx ~has_symbol:true)
  end;
  let colds = ref [] in
  let defer_cold c = colds := c :: !colds in
  List.iter
    (fun f -> List.iter add (lower_function opts ls text ~pic f ~defer_cold))
    p.funcs;
  List.iter (fun c -> add (lower_cold opts ls text c)) (List.rev !colds);
  { text; fragments = List.rev !fragments; labels = ls.next }
