module Options = Cet_compiler.Options
module Ir = Cet_compiler.Ir
module Link = Cet_compiler.Link
module Codegen = Cet_compiler.Codegen

type binary = {
  suite : string;
  program : string;
  config : Options.t;
  lang : Ir.lang;
  stripped : string;
  truth : (string * int) list;
}

(* One program of the plan and its once-cell.  The first of the
   program's binaries to be built generates the IR and prepares it
   (validation, imports, labels: everything no option changes), and the
   others share the prepared program, which may be linked on other
   domains at the same time: [Lazy] must not be forced from two domains
   at once, so the cell is a mutex.  It is emptied once every
   configuration has been linked from it, so a run holds only the
   programs it is still building. *)
type program = {
  profile : Profile.t;  (* scaled *)
  index : int;
  lock : Mutex.t;
  mutable prepared : Codegen.prepared option;
  mutable linked : int;  (* links from [prepared] *)
}

type plan = { plan_seed : int; plan_configs : Options.t array; programs : program array }

let plan ?(profiles = Profile.all) ?(configs = Options.all_grid) ~seed ~scale () =
  let programs =
    List.concat_map
      (fun profile ->
        let profile = Profile.scaled scale profile in
        List.init profile.Profile.programs (fun index ->
            { profile; index; lock = Mutex.create (); prepared = None; linked = 0 }))
      profiles
  in
  { plan_seed = seed; plan_configs = Array.of_list configs; programs = Array.of_list programs }

let length plan = Array.length plan.programs * Array.length plan.plan_configs

let prepared_of plan p =
  Mutex.protect p.lock (fun () ->
      match p.prepared with
      | Some pp -> pp
      | None ->
        let pp =
          Codegen.prepare
            (Generator.program ~seed:plan.plan_seed ~profile:p.profile ~index:p.index)
        in
        p.prepared <- Some pp;
        p.linked <- 0;
        pp)

let release plan p =
  Mutex.protect p.lock (fun () ->
      p.linked <- p.linked + 1;
      if p.linked >= Array.length plan.plan_configs then p.prepared <- None)

(* The one build: binary [k] is configuration [k mod #configs] of
   program [k / #configs].  Link it from the program's shared prepared
   form and let [view] keep what it needs of the link result next to the
   binary.  The binary itself holds the stripped bytes and the truth
   only — never the image or the IR. *)
let build_impl plan k view =
  if k < 0 || k >= length plan then invalid_arg "Dataset.nth: index out of range";
  let n_configs = Array.length plan.plan_configs in
  let p = plan.programs.(k / n_configs) and config = plan.plan_configs.(k mod n_configs) in
  let pp = prepared_of plan p in
  let res = Link.link_prepared config pp in
  release plan p;
  view res
    {
      suite = p.profile.Profile.suite;
      program = Codegen.prog_name pp;
      config;
      lang = Codegen.lang pp;
      stripped = Cet_elf.Writer.write ~strip:true res.image;
      truth = res.truth;
    }

(* Corpus construction dominates harness wall-clock alongside the
   identification phases, so it gets its own span. *)
let build plan k view =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"corpus.build" (fun () -> build_impl plan k view)
  else build_impl plan k view

let nth plan k = [ build plan k (fun _ b -> b) ]

let iter_items view ?profiles ?configs ~seed ~scale f =
  let plan = plan ?profiles ?configs ~seed ~scale () in
  for k = 0 to length plan - 1 do
    f (build plan k view)
  done

let iter ?profiles ?configs ~seed ~scale f =
  iter_items (fun _ b -> b) ?profiles ?configs ~seed ~scale f

let iter_twins ?profiles ?configs ~seed ~scale f =
  iter_items
    (fun (res : Link.result) b -> (b, Cet_elf.Writer.write res.image))
    ?profiles ?configs ~seed ~scale
    (fun (b, unstripped) -> f b ~unstripped)
