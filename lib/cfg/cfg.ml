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

(* Instructions of one extent, via binary search over the sweep stream. *)
let insns_in (sweep : Linear.t) lo hi =
  let arr = sweep.insns in
  let n = Array.length arr in
  let first =
    let l = ref 0 and h = ref n in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if arr.(mid).Decoder.addr < lo then l := mid + 1 else h := mid
    done;
    !l
  in
  let rec collect i acc =
    if i >= n || arr.(i).Decoder.addr >= hi then List.rev acc
    else collect (i + 1) (arr.(i) :: acc)
  in
  collect first []

let recover_function sweep ~entry ~stop =
  let insns = insns_in sweep entry stop in
  let in_extent a = a >= entry && a < stop in
  (* Leaders: entry, intra-extent branch targets, post-terminator
     successors. *)
  let leaders = Hashtbl.create 32 in
  Hashtbl.replace leaders entry ();
  List.iter
    (fun (i : Decoder.ins) ->
      let next = i.addr + i.len in
      match i.kind with
      | Decoder.Jmp_direct t ->
        if in_extent t then Hashtbl.replace leaders t ();
        if in_extent next then Hashtbl.replace leaders next ()
      | Decoder.Jcc_direct t ->
        if in_extent t then Hashtbl.replace leaders t ();
        if in_extent next then Hashtbl.replace leaders next ()
      | Decoder.Ret | Decoder.Halt | Decoder.Jmp_indirect _ ->
        if in_extent next then Hashtbl.replace leaders next ()
      | _ -> ())
    insns;
  let starts =
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders [])
  in
  (* Build blocks by walking instructions, closing at the next leader. *)
  let next_leader_after a =
    let rec go = function
      | [] -> stop
      | s :: rest -> if s > a then s else go rest
    in
    go starts
  in
  let blocks = ref [] in
  let edges = ref [] in
  let calls = ref [] in
  List.iter
    (fun b_start ->
      let b_stop_limit = next_leader_after b_start in
      let block_insns =
        List.filter (fun (i : Decoder.ins) -> i.addr >= b_start && i.addr < b_stop_limit) insns
      in
      match List.rev block_insns with
      | [] -> ()
      | last :: _ ->
        let b_stop = last.addr + last.len in
        let term =
          match last.kind with
          | Decoder.Ret -> T_return
          | Decoder.Halt -> T_halt
          | Decoder.Jmp_direct t ->
            if in_extent t then begin
              edges := (b_start, t) :: !edges;
              T_jump t
            end
            else T_tail t
          | Decoder.Jcc_direct t ->
            let fall = b_stop in
            if in_extent t then edges := (b_start, t) :: !edges;
            if in_extent fall then edges := (b_start, fall) :: !edges;
            T_cond (t, fall)
          | Decoder.Jmp_indirect _ -> T_indirect
          | _ ->
            if in_extent b_stop then edges := (b_start, b_stop) :: !edges;
            T_fall
        in
        List.iter
          (fun (i : Decoder.ins) ->
            match i.kind with
            | Decoder.Call_direct t when Linear.in_range sweep t -> calls := t :: !calls
            | _ -> ())
          block_insns;
        blocks :=
          { b_start; b_stop; b_insns = List.length block_insns; b_term = term } :: !blocks)
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
