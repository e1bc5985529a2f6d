(* Spans the benchmark records around its own calls into each layer.

   Every domain appends to a buffer of its own, so recording takes no lock;
   nothing is written until the run ends.  A span's parent is the
   innermost span open on the same domain unless one is given (a pool
   item's parent is the pass that issued it, on another domain). *)

open Ledger_lib

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  binary : int;  (** request id of the binary being analysed; -1 outside one *)
  layer : string;
  start_ns : int;
  end_ns : int;
  domain : int;
}

type buffer = {
  mutable spans : span list;
  mutable open_ : (int * int) list;  (** (id, binary) of the open spans *)
}

let next_id = Atomic.make 0
let buffers = ref []
let lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; open_ = [] } in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let now_ns = Cet_telemetry.Span.now_ns

let current () = match (Domain.DLS.get key).open_ with (id, _) :: _ -> id | [] -> -1

let with_ ?parent ?binary layer f =
  let b = Domain.DLS.get key in
  let up_id, up_binary = match b.open_ with top :: _ -> top | [] -> (-1, -1) in
  let parent = Option.value parent ~default:up_id in
  let binary = Option.value binary ~default:up_binary in
  let id = Atomic.fetch_and_add next_id 1 in
  b.open_ <- (id, binary) :: b.open_;
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let end_ns = now_ns () in
      b.open_ <- List.tl b.open_;
      b.spans <-
        { id; parent; binary; layer; start_ns; end_ns; domain = (Domain.self () :> int) }
        :: b.spans)

let collect () =
  Mutex.protect lock (fun () ->
      List.concat_map (fun b -> b.spans) !buffers
      |> List.sort (fun a b -> Int.compare a.id b.id))

let duration s = s.end_ns - s.start_ns

(* Self time of each layer: a span's duration less the part its children
   on the same domain cover.  Children that ran on another domain overlap
   their parent in wall time, not in that domain's busy time, so they are
   not subtracted. *)
let self_ns spans =
  let domain_of = Hashtbl.create 1024 and covered = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace domain_of s.id s.domain) spans;
  List.iter
    (fun s ->
      if Hashtbl.find_opt domain_of s.parent = Some s.domain then
        Hashtbl.replace covered s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = duration s - Option.value ~default:0 (Hashtbl.find_opt covered s.id) in
      Hashtbl.replace by_layer s.layer
        (own + Option.value ~default:0 (Hashtbl.find_opt by_layer s.layer)))
    spans;
  fun layer -> Option.value ~default:0 (Hashtbl.find_opt by_layer layer)

let to_json ~workload s : Json.t =
  Obj
    [
      ("workload", Str workload);
      ("id", Json.int s.id);
      ("parent", Json.int s.parent);
      ("binary", Json.int s.binary);
      ("layer", Str s.layer);
      ("start_ns", Json.int s.start_ns);
      ("end_ns", Json.int s.end_ns);
      ("domain", Json.int s.domain);
    ]

let append_jsonl path ~workload spans =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (to_json ~workload s));
          output_char oc '\n')
        spans)
