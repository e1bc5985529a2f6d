(* Tests for cet_cfg: basic blocks, edges, call graph, DOT rendering. *)

module O = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Reader = Cet_elf.Reader
module Cfg = Cet_cfg.Cfg

let check = Alcotest.check

let base_prog ?(lang = Ir.C) funcs =
  { Ir.prog_name = "t"; lang; funcs; extra_imports = [] }

let compile ?(opts = O.default) prog =
  let res = Link.link opts prog in
  (res, Reader.read (Cet_elf.Writer.write ~strip:true res.image))

let find_func funcs res name = List.find (fun f -> f.Cfg.f_entry = List.assoc name res.Link.truth) funcs

let diamond_prog =
  base_prog
    [
      Ir.func "main"
        [ Ir.Compute 1; Ir.If_else ([ Ir.Compute 1 ], [ Ir.Compute 2 ]); Ir.Compute 1 ];
      Ir.func "callee" [ Ir.Compute 1 ];
    ]

let test_straightline_single_block () =
  let p = base_prog [ Ir.func "main" [ Ir.Compute 5 ] ] in
  let res, reader = compile p in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let m = find_func funcs res "main" in
  check Alcotest.int "one block" 1 (Cfg.block_count m);
  check Alcotest.int "no edges" 0 (Cfg.edge_count m);
  match m.Cfg.f_blocks with
  | [ b ] ->
    check Alcotest.bool "ret terminator" true (b.Cfg.b_term = Cfg.T_return);
    check Alcotest.int "starts at entry" m.Cfg.f_entry b.Cfg.b_start
  | _ -> Alcotest.fail "expected exactly one block"

let test_diamond_shape () =
  let res, reader = compile diamond_prog in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let m = find_func funcs res "main" in
  (* if/else: header, then-arm, else-arm, join (+ tail) — at least 4
     blocks with a branch and a join. *)
  check Alcotest.bool "several blocks" true (Cfg.block_count m >= 4);
  check Alcotest.bool "edges" true (Cfg.edge_count m >= 4);
  (* Exactly one conditional terminator with both its edges in-function. *)
  let conds =
    List.filter (fun b -> match b.Cfg.b_term with Cfg.T_cond _ -> true | _ -> false)
      m.Cfg.f_blocks
  in
  check Alcotest.int "one cond" 1 (List.length conds);
  (* Every edge endpoint is a block start inside the function. *)
  let starts = List.map (fun b -> b.Cfg.b_start) m.Cfg.f_blocks in
  List.iter
    (fun (a, b) ->
      check Alcotest.bool "edge src is block" true (List.mem a starts);
      check Alcotest.bool "edge dst is block" true (List.mem b starts))
    m.Cfg.f_edges

let test_blocks_partition_extent () =
  let res, reader = compile diamond_prog in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let m = find_func funcs res "main" in
  (* Blocks are disjoint, ordered, and within the extent. *)
  let rec walk = function
    | a :: (b : Cfg.block) :: rest ->
      check Alcotest.bool "ordered" true (a.Cfg.b_stop <= b.Cfg.b_start);
      walk (b :: rest)
    | _ -> ()
  in
  walk m.Cfg.f_blocks;
  List.iter
    (fun b ->
      check Alcotest.bool "within extent" true
        (b.Cfg.b_start >= m.Cfg.f_entry && b.Cfg.b_stop <= m.Cfg.f_stop))
    m.Cfg.f_blocks

let test_call_graph () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Call (Ir.Local "a"); Ir.Call (Ir.Local "b") ];
        Ir.func "a" [ Ir.Call (Ir.Local "b") ];
        Ir.func "b" [ Ir.Compute 1 ];
      ]
  in
  let res, reader = compile p in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let cg = Cfg.call_graph funcs in
  let at name = List.assoc name res.Link.truth in
  let callees n = List.assoc (at n) cg in
  check Alcotest.bool "main->a" true (List.mem (at "a") (callees "main"));
  check Alcotest.bool "main->b" true (List.mem (at "b") (callees "main"));
  check Alcotest.bool "a->b" true (List.mem (at "b") (callees "a"));
  check Alcotest.(list int) "b-> nothing" [] (callees "b");
  (* reachable_from main covers everything but not vice versa *)
  let reach = Cfg.reachable_from funcs (at "main") in
  List.iter (fun n -> check Alcotest.bool n true (List.mem (at n) reach)) [ "a"; "b" ];
  check Alcotest.bool "b reaches only itself" true
    (Cfg.reachable_from funcs (at "b") = [ at "b" ])

let test_tail_call_terminator () =
  let p =
    base_prog
      [
        Ir.func "main" [ Ir.Compute 1; Ir.Tail_call_site "tgt" ];
        Ir.func "tgt" [ Ir.Compute 1 ];
        Ir.func "z" [ Ir.Call (Ir.Local "tgt") ];
      ]
  in
  let opts = { O.default with opt = O.O2 } in
  let res, reader = compile ~opts p in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let m = find_func funcs res "main" in
  let tgt = List.assoc "tgt" res.Link.truth in
  let tails =
    List.filter (fun b -> b.Cfg.b_term = Cfg.T_tail tgt) m.Cfg.f_blocks
  in
  check Alcotest.int "one tail block" 1 (List.length tails);
  (* The tail edge leaves the function: not an intra edge. *)
  List.iter
    (fun (_, dst) -> check Alcotest.bool "no intra edge to tgt" true (dst <> tgt))
    m.Cfg.f_edges

let test_switch_indirect_terminator () =
  let p =
    base_prog
      [
        Ir.func "main"
          [ Ir.Switch [ [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ]; [ Ir.Compute 1 ] ] ];
      ]
  in
  let res, reader = compile p in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let m = find_func funcs res "main" in
  check Alcotest.bool "has switch dispatch" true
    (List.exists (fun b -> b.Cfg.b_term = Cfg.T_indirect) m.Cfg.f_blocks)

let test_dot_rendering () =
  let res, reader = compile diamond_prog in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  let m = find_func funcs res "main" in
  let dot = Cfg.to_dot m in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "digraph" true (contains "digraph");
  check Alcotest.bool "has nodes" true (contains "n0x");
  check Alcotest.bool "has edges" true (contains "->")

let test_cfg_covers_all_functions () =
  let profile = { Cet_corpus.Profile.coreutils with Cet_corpus.Profile.programs = 1 } in
  let ir = Cet_corpus.Generator.program ~seed:3 ~profile ~index:0 in
  let res = Link.link O.default ir in
  let reader = Reader.read (Cet_elf.Writer.write ~strip:true res.image) in
  let funcs = Cfg.recover_st (Cet_disasm.Substrate.create reader) in
  (* Using FunSeeker entries by default: one CFG per identified function,
     each with at least one block, all blocks with >= 1 instruction. *)
  check Alcotest.bool "many functions" true (List.length funcs > 50);
  List.iter
    (fun f ->
      check Alcotest.bool "has blocks" true (Cfg.block_count f >= 1);
      List.iter
        (fun b -> check Alcotest.bool "non-empty block" true (b.Cfg.b_insns >= 1))
        f.Cfg.f_blocks)
    funcs

let suite =
  [
    ( "cfg",
      [
        Alcotest.test_case "straight-line = 1 block" `Quick test_straightline_single_block;
        Alcotest.test_case "diamond shape" `Quick test_diamond_shape;
        Alcotest.test_case "blocks partition extent" `Quick test_blocks_partition_extent;
        Alcotest.test_case "call graph + reachability" `Quick test_call_graph;
        Alcotest.test_case "tail-call terminator" `Quick test_tail_call_terminator;
        Alcotest.test_case "switch dispatch" `Quick test_switch_indirect_terminator;
        Alcotest.test_case "dot rendering" `Quick test_dot_rendering;
        Alcotest.test_case "covers whole binary" `Quick test_cfg_covers_all_functions;
      ] );
  ]
