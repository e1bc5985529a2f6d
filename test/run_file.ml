(* What `evaluate --manifest-out` writes for a harness result, for the
   tests that compare or read back what a run records. *)

module Manifest = Cet_obs.Manifest

let manifest ?(jobs = 1) (r : Cet_eval.Harness.results) =
  {
    Manifest.r_experiment = "test";
    r_seed = 0;
    r_scale = 1.0;
    r_jobs = jobs;
    r_timing = false;
    r_binaries = r.Cet_eval.Harness.binaries;
    r_functions = r.Cet_eval.Harness.functions;
    r_quarantined = List.length r.Cet_eval.Harness.failures;
    r_trace = None;
    rows = r.Cet_eval.Harness.profiles;
  }

(* The whole file. *)
let text ?jobs r =
  let tmp = Filename.temp_file "run-file" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> Manifest.write oc (manifest ?jobs r));
      In_channel.with_open_bin tmp In_channel.input_all)

(* Every line after the header: the rows, which no --jobs changes. *)
let rows r =
  let t = text r in
  String.sub t (String.index t '\n' + 1) (String.length t - String.index t '\n' - 1)
