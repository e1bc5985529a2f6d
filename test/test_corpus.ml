(* Tests for cet_corpus: the program sampler and dataset builder. *)

module Ir = Cet_compiler.Ir
module O = Cet_compiler.Options
module Profile = Cet_corpus.Profile
module Generator = Cet_corpus.Generator
module Dataset = Cet_corpus.Dataset

let check = Alcotest.check

let small_profile =
  {
    Profile.coreutils with
    Profile.suite = "micro";
    programs = 2;
    funcs_lo = 30;
    funcs_hi = 60;
  }

let test_generator_deterministic () =
  let a = Generator.program ~seed:5 ~profile:small_profile ~index:0 in
  let b = Generator.program ~seed:5 ~profile:small_profile ~index:0 in
  check Alcotest.bool "identical" true (a = b)

let test_generator_seed_sensitivity () =
  let a = Generator.program ~seed:5 ~profile:small_profile ~index:0 in
  let b = Generator.program ~seed:6 ~profile:small_profile ~index:0 in
  check Alcotest.bool "differ" true (a <> b)

let test_generator_index_sensitivity () =
  let a = Generator.program ~seed:5 ~profile:small_profile ~index:0 in
  let b = Generator.program ~seed:5 ~profile:small_profile ~index:1 in
  check Alcotest.bool "differ" true (a <> b)

let test_generator_valid () =
  for index = 0 to 9 do
    let p = Generator.program ~seed:11 ~profile:small_profile ~index in
    match Ir.validate p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "program %d invalid: %s" index e
  done

let test_generator_size_bounds () =
  for index = 0 to 4 do
    let p = Generator.program ~seed:3 ~profile:small_profile ~index in
    let n = List.length p.Ir.funcs in
    if n < small_profile.Profile.funcs_lo || n > small_profile.Profile.funcs_hi then
      Alcotest.failf "function count %d out of bounds" n
  done

let test_generator_has_main () =
  let p = Generator.program ~seed:1 ~profile:small_profile ~index:0 in
  check Alcotest.bool "main exists" true
    (List.exists (fun f -> f.Ir.name = "main") p.Ir.funcs)

let test_lang_split () =
  let cpp_profile = { small_profile with Profile.lang_cpp_fraction = 1.0 } in
  let p = Generator.program ~seed:1 ~profile:cpp_profile ~index:0 in
  check Alcotest.bool "cpp" true (p.Ir.lang = Ir.Cpp);
  let c_profile = { small_profile with Profile.lang_cpp_fraction = 0.0 } in
  let p = Generator.program ~seed:1 ~profile:c_profile ~index:0 in
  check Alcotest.bool "c" true (p.Ir.lang = Ir.C)

let test_class_proportions () =
  (* On a large sample, the share of static functions without an
     end-branch-granting property must approximate Figure 3's ~11%. *)
  let profile = { small_profile with Profile.funcs_lo = 400; funcs_hi = 400 } in
  let total = ref 0 and endbr = ref 0 in
  for index = 0 to 9 do
    let p = Generator.program ~seed:21 ~profile ~index in
    List.iter
      (fun (f : Ir.func) ->
        incr total;
        if (f.linkage = Ir.Exported || f.address_taken) && not f.no_endbr then incr endbr)
      p.Ir.funcs
  done;
  let share = float_of_int !endbr /. float_of_int !total in
  if share < 0.85 || share > 0.93 then
    Alcotest.failf "endbr-eligible share %.3f outside [0.85, 0.93]" share

let test_dead_functions_unreferenced () =
  let p = Generator.program ~seed:9 ~profile:small_profile ~index:0 in
  let dead = List.filter (fun f -> f.Ir.dead) p.Ir.funcs in
  let refs =
    List.concat_map
      (fun (f : Ir.func) ->
        List.filter_map
          (fun s ->
            match s with
            | Ir.Call (Ir.Local n) | Ir.Tail_call_site n | Ir.Call_via_pointer n
            | Ir.Store_fn_pointer n ->
              Some n
            | _ -> None)
          (Ir.func_stmts f))
      p.Ir.funcs
  in
  List.iter
    (fun (d : Ir.func) ->
      check Alcotest.bool ("dead " ^ d.name ^ " unreferenced") false (List.mem d.name refs))
    dead

let test_dataset_count () =
  let profiles = [ small_profile ] in
  let configs = [ O.default; { O.default with opt = O.O0 } ] in
  let seen = ref 0 in
  Dataset.iter ~profiles ~configs ~seed:1 ~scale:1.0 (fun _ -> incr seen);
  check Alcotest.int "iterated" 4 !seen

let test_dataset_binary_integrity () =
  let profiles = [ small_profile ] in
  let configs = [ O.default ] in
  Dataset.iter_twins ~profiles ~configs ~seed:1 ~scale:1.0 (fun b ~unstripped ->
      let stripped = Cet_elf.Reader.read b.Dataset.stripped in
      let unstripped = Cet_elf.Reader.read unstripped in
      check Alcotest.int "stripped has no symtab" 0
        (List.length (Cet_elf.Reader.symbols stripped));
      check Alcotest.bool "unstripped has symtab" true
        (List.length (Cet_elf.Reader.symbols unstripped) > 0);
      check Alcotest.bool "cet" true (Cet_elf.Reader.cet_enabled stripped);
      (* ground truth = corrected symbols of the unstripped twin *)
      let sym_truth =
        Cet_eval.Ground_truth.addresses (Cet_eval.Ground_truth.from_symbols unstripped)
      in
      let compiler_truth = Cet_eval.Ground_truth.addresses b.Dataset.truth in
      (* symbols may omit the pc-thunk; every symbol entry must be truth *)
      List.iter
        (fun a -> check Alcotest.bool "symbol in truth" true (List.mem a compiler_truth))
        sym_truth)

let test_plan_matches_iter () =
  (* Concatenating nth 0 .. length-1 must reproduce the iter stream
     exactly — same binaries, same order — so workers materializing plan
     items independently see the corpus the sequential driver sees. *)
  let configs = [ O.default; { O.default with O.compiler = O.Clang } ] in
  let streamed = ref [] in
  Dataset.iter ~profiles:[ small_profile ] ~configs ~seed:11 ~scale:1.0 (fun b ->
      streamed := b :: !streamed);
  let streamed = List.rev !streamed in
  let plan = Dataset.plan ~profiles:[ small_profile ] ~configs ~seed:11 ~scale:1.0 () in
  check Alcotest.int "length = programs x configs"
    (small_profile.Profile.programs * List.length configs)
    (Dataset.length plan);
  check Alcotest.int "one item per streamed binary" (List.length streamed) (Dataset.length plan);
  let planned =
    List.concat_map (Dataset.nth plan) (List.init (Dataset.length plan) Fun.id)
  in
  check Alcotest.bool "identical stream" true (streamed = planned);
  (* nth is pure: re-materializing an item yields the same binary. *)
  check Alcotest.bool "nth pure" true (Dataset.nth plan 1 = Dataset.nth plan 1);
  check Alcotest.bool "out of range rejected" true
    (match Dataset.nth plan (Dataset.length plan) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let four_configs =
  [
    O.default;
    { O.default with O.compiler = O.Clang };
    { O.default with O.opt = O.O0 };
    { O.default with O.arch = Cet_x86.Arch.X86 };
  ]

let test_plan_parallel_build () =
  (* Four workers build the binaries of one program at once, all from
     its shared IR: the once-cell under contention.  Each run gets a
     fresh plan, so each starts with no IR generated. *)
  let build jobs =
    let plan =
      Dataset.plan ~profiles:[ small_profile ] ~configs:four_configs ~seed:3 ~scale:1.0 ()
    in
    let wq = Cet_util.Work_queue.create (Cet_util.Work_queue.config ~jobs ()) in
    Cet_util.Work_queue.map wq (Dataset.length plan) (Dataset.nth plan)
  in
  let seq = build 1 in
  check Alcotest.int "one item per binary" 8 (Array.length seq);
  for _ = 1 to 3 do
    check Alcotest.bool "jobs 4 builds the bytes jobs 1 does" true (build 4 = seq)
  done

let test_plan_nth_after_drop () =
  (* Once every configuration of a program is linked, its IR is dropped;
     asking for one of its binaries again regenerates the IR, and the
     bytes are the same. *)
  let plan = Dataset.plan ~profiles:[ small_profile ] ~configs:four_configs ~seed:3 ~scale:1.0 () in
  let first = List.init 4 (Dataset.nth plan) in
  List.iteri
    (fun k bins ->
      check Alcotest.bool (Printf.sprintf "binary %d rebuilt identically" k) true
        (Dataset.nth plan k = bins))
    first;
  check Alcotest.bool "configuration-minor order" true
    (List.map (fun b -> (b.Dataset.program, b.Dataset.config)) (List.concat first)
    = List.map (fun c -> ((List.hd (List.hd first)).Dataset.program, c)) four_configs)

let test_scaled () =
  let p = Profile.scaled 0.5 Profile.coreutils in
  check Alcotest.int "programs halved" 54 p.Profile.programs;
  check Alcotest.int "funcs preserved" Profile.coreutils.Profile.funcs_lo p.Profile.funcs_lo

let suite =
  [
    ( "corpus",
      [
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_sensitivity;
        Alcotest.test_case "index sensitivity" `Quick test_generator_index_sensitivity;
        Alcotest.test_case "always valid" `Quick test_generator_valid;
        Alcotest.test_case "size bounds" `Quick test_generator_size_bounds;
        Alcotest.test_case "has main" `Quick test_generator_has_main;
        Alcotest.test_case "language split" `Quick test_lang_split;
        Alcotest.test_case "class proportions" `Slow test_class_proportions;
        Alcotest.test_case "dead functions unreferenced" `Quick test_dead_functions_unreferenced;
        Alcotest.test_case "dataset count/iterate" `Quick test_dataset_count;
        Alcotest.test_case "dataset binary integrity" `Quick test_dataset_binary_integrity;
        Alcotest.test_case "plan/nth matches iter" `Quick test_plan_matches_iter;
        Alcotest.test_case "plan: parallel build = sequential" `Quick
          test_plan_parallel_build;
        Alcotest.test_case "plan: nth after the IR is dropped" `Quick
          test_plan_nth_after_drop;
        Alcotest.test_case "profile scaling" `Quick test_scaled;
      ] );
  ]
