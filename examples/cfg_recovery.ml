(* CFG recovery on top of FunSeeker — the downstream consumer the paper
   motivates (§VII-B: "CFG recovery techniques often rely on the assumption
   that function entries are known").

     dune exec examples/cfg_recovery.exe *)

module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Cfg = Cet_cfg.Cfg

let () =
  (* A binutils-like program, stripped. *)
  let profile =
    { Cet_corpus.Profile.binutils with Cet_corpus.Profile.programs = 1 }
  in
  let ir = Cet_corpus.Generator.program ~seed:11 ~profile ~index:0 in
  let res = Cet_compiler.Link.link O.default ir in
  let st = Cet_disasm.Substrate.of_bytes (Cet_elf.Writer.write ~strip:true res.image) in
  (* Function entries come from FunSeeker (over the same substrate); the
     CFG layer does the rest. *)
  let funcs = Cfg.recover_st st in
  let blocks = List.fold_left (fun acc f -> acc + Cfg.block_count f) 0 funcs in
  let edges = List.fold_left (fun acc f -> acc + Cfg.edge_count f) 0 funcs in
  Printf.printf "recovered %d function CFGs: %d basic blocks, %d intra edges\n\n"
    (List.length funcs) blocks edges;
  (* Top functions by block count. *)
  let by_size =
    List.sort (fun a b -> compare (Cfg.block_count b) (Cfg.block_count a)) funcs
  in
  let name_of addr =
    match List.find_opt (fun (_, a) -> a = addr) res.Cet_compiler.Link.truth with
    | Some (n, _) -> n
    | None -> "?"
  in
  Printf.printf "%-12s %8s %8s %8s %8s\n" "function" "blocks" "edges" "calls" "bytes";
  List.iteri
    (fun i f ->
      if i < 8 then
        Printf.printf "%-12s %8d %8d %8d %8d\n" (name_of f.Cfg.f_entry)
          (Cfg.block_count f) (Cfg.edge_count f)
          (List.length f.Cfg.f_calls)
          (f.Cfg.f_stop - f.Cfg.f_entry))
    by_size;
  (* Call-graph reachability from main. *)
  let main = List.assoc "main" res.Cet_compiler.Link.truth in
  let reach = Cfg.reachable_from funcs main in
  Printf.printf "\ncall graph: %d of %d functions reachable from main\n"
    (List.length reach) (List.length funcs);
  (* DOT output for the largest function. *)
  match by_size with
  | biggest :: _ ->
    let dot = Cfg.to_dot biggest in
    let path = Filename.concat (Filename.get_temp_dir_name ()) "funseeker_cfg.dot" in
    let oc = open_out path in
    output_string oc dot;
    close_out oc;
    Printf.printf "largest CFG (%s) written to %s (%d bytes of DOT)\n"
      (name_of biggest.Cfg.f_entry) path (String.length dot)
  | [] -> ()
