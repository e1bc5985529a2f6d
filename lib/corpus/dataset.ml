module Options = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link

type binary = {
  suite : string;
  program : string;
  config : Options.t;
  lang : Ir.lang;
  stripped : string;
  truth : (string * int) list;
}

type plan = {
  plan_seed : int;
  plan_configs : Options.t list;
  items : (Profile.t * int) array;  (* (scaled profile, program index) *)
}

let plan ?(profiles = Profile.all) ?(configs = Options.all_grid) ~seed ~scale () =
  let items =
    List.concat_map
      (fun profile ->
        let profile = Profile.scaled scale profile in
        List.init profile.Profile.programs (fun index -> (profile, index)))
      profiles
  in
  { plan_seed = seed; plan_configs = configs; items = Array.of_list items }

let length plan = Array.length plan.items
let binaries plan = Array.length plan.items * List.length plan.plan_configs

(* The one build: generate program [k]'s IR once, link it under every
   configuration, and let [view] keep what it needs of each link result
   next to the binary.  The binary itself holds the stripped bytes and the
   truth only — never the image or the IR. *)
let build_impl plan k view =
  let profile, index = plan.items.(k) in
  let ir = Generator.program ~seed:plan.plan_seed ~profile ~index in
  List.map
    (fun config ->
      let res = Link.link config ir in
      view res
        {
          suite = profile.Profile.suite;
          program = ir.Ir.prog_name;
          config;
          lang = ir.Ir.lang;
          stripped = Cet_elf.Writer.write ~strip:true res.image;
          truth = res.truth;
        })
    plan.plan_configs

(* Corpus construction dominates harness wall-clock alongside the
   identification phases, so it gets its own span. *)
let build plan k view =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"corpus.build" (fun () -> build_impl plan k view)
  else build_impl plan k view

let nth plan k = build plan k (fun _ b -> b)

let nth_twins plan k =
  build plan k (fun (res : Link.result) b -> (b, Cet_elf.Writer.write res.image))

let iter_items nth ?profiles ?configs ~seed ~scale f =
  let plan = plan ?profiles ?configs ~seed ~scale () in
  for k = 0 to length plan - 1 do
    List.iter f (nth plan k)
  done

let iter ?profiles ?configs ~seed ~scale f = iter_items nth ?profiles ?configs ~seed ~scale f

let iter_twins ?profiles ?configs ~seed ~scale f =
  iter_items nth_twins ?profiles ?configs ~seed ~scale (fun (b, unstripped) ->
      f b ~unstripped)

let count ?(profiles = Profile.all) ?(configs = Options.all_grid) ~scale () =
  List.fold_left
    (fun acc p -> acc + (Profile.scaled scale p).Profile.programs * List.length configs)
    0 profiles
