module Linear = Cet_disasm.Linear
module Decoder = Cet_x86.Decoder

type terminator =
  | T_return
  | T_jump of int
  | T_tail of int
  | T_cond of int * int
  | T_indirect
  | T_halt
  | T_fall

type block = { b_start : int; b_stop : int; b_insns : int; b_term : terminator }

type func = {
  f_entry : int;
  f_stop : int;
  f_blocks : block list;
  f_edges : (int * int) list;
  f_calls : int list;
}

(* One extent's instructions are the index range [first_index_at entry,
   first_index_at stop) of the sweep stream, and each block is the
   sub-range between consecutive leaders. *)
let recover_function (sw : Linear.t) ~entry ~stop =
  let in_extent a = a >= entry && a < stop in
  (* Leaders: entry, intra-extent branch targets, post-terminator
     successors. *)
  let leaders = Hashtbl.create 32 in
  Hashtbl.replace leaders entry ();
  for k = Linear.first_index_at sw entry to Linear.first_index_at sw stop - 1 do
    let tag = Linear.tag sw k in
    let next = Linear.addr sw k + Linear.len sw k in
    if tag = Decoder.tag_jmp_direct || tag = Decoder.tag_jcc_direct then begin
      let t = Linear.target sw k in
      if in_extent t then Hashtbl.replace leaders t ();
      if in_extent next then Hashtbl.replace leaders next ()
    end
    else if tag = Decoder.tag_ret || tag = Decoder.tag_halt || tag = Decoder.tag_jmp_indirect
    then if in_extent next then Hashtbl.replace leaders next ()
  done;
  let starts =
    Array.of_list (List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders []))
  in
  let blocks = ref [] in
  let edges = ref [] in
  let calls = ref [] in
  Array.iteri
    (fun j b_start ->
      (* A block closes at the next leader. *)
      let b_stop_limit = if j + 1 < Array.length starts then starts.(j + 1) else stop in
      let lo = Linear.first_index_at sw b_start in
      let hi = Linear.first_index_at sw b_stop_limit in
      if hi > lo then begin
        let last = hi - 1 in
        let b_stop = Linear.addr sw last + Linear.len sw last in
        let tag = Linear.tag sw last and t = Linear.target sw last in
        let term =
          if tag = Decoder.tag_ret then T_return
          else if tag = Decoder.tag_halt then T_halt
          else if tag = Decoder.tag_jmp_direct then
            if in_extent t then begin
              edges := (b_start, t) :: !edges;
              T_jump t
            end
            else T_tail t
          else if tag = Decoder.tag_jcc_direct then begin
            let fall = b_stop in
            if in_extent t then edges := (b_start, t) :: !edges;
            if in_extent fall then edges := (b_start, fall) :: !edges;
            T_cond (t, fall)
          end
          else if tag = Decoder.tag_jmp_indirect then T_indirect
          else begin
            if in_extent b_stop then edges := (b_start, b_stop) :: !edges;
            T_fall
          end
        in
        for k = lo to hi - 1 do
          if Linear.tag sw k = Decoder.tag_call_direct then begin
            let t = Linear.target sw k in
            if Linear.in_range sw t then calls := t :: !calls
          end
        done;
        blocks := { b_start; b_stop; b_insns = hi - lo; b_term = term } :: !blocks
      end)
    starts;
  {
    f_entry = entry;
    f_stop = stop;
    f_blocks = List.rev !blocks;
    f_edges = List.sort_uniq compare !edges;
    f_calls = List.sort_uniq Int.compare !calls;
  }

let recover_st ?entries st =
  let sweep = Cet_disasm.Substrate.sweep st in
  let entries =
    match entries with
    | Some e -> List.sort_uniq Int.compare e
    | None -> (Core.Funseeker.analyze_st st).Core.Funseeker.functions
  in
  let text_end = sweep.base + sweep.size in
  let arr = Array.of_list entries in
  Array.to_list
    (Array.mapi
       (fun i entry ->
         let stop = if i + 1 < Array.length arr then arr.(i + 1) else text_end in
         recover_function sweep ~entry ~stop)
       arr)

let call_graph funcs =
  let entries = Hashtbl.create (List.length funcs) in
  List.iter (fun f -> Hashtbl.replace entries f.f_entry ()) funcs;
  List.map
    (fun f -> (f.f_entry, List.filter (Hashtbl.mem entries) f.f_calls))
    funcs

let block_count f = List.length f.f_blocks
let edge_count f = List.length f.f_edges

let reachable_from funcs start =
  let graph = Hashtbl.create (List.length funcs) in
  List.iter (fun (e, cs) -> Hashtbl.replace graph e cs) (call_graph funcs);
  let seen = Hashtbl.create 64 in
  let rec go e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.replace seen e ();
      List.iter go (Option.value ~default:[] (Hashtbl.find_opt graph e))
    end
  in
  go start;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let to_dot f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph f_0x%x {\n  node [shape=box];\n" f.f_entry);
  List.iter
    (fun b ->
      let label =
        Printf.sprintf "0x%x..0x%x\\n%d insns%s" b.b_start b.b_stop b.b_insns
          (match b.b_term with
          | T_return -> "\\nret"
          | T_tail t -> Printf.sprintf "\\ntail 0x%x" t
          | T_indirect -> "\\nswitch"
          | T_halt -> "\\nhlt"
          | _ -> "")
      in
      Buffer.add_string buf (Printf.sprintf "  n0x%x [label=\"%s\"];\n" b.b_start label))
    f.f_blocks;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  n0x%x -> n0x%x;\n" a b))
    f.f_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
