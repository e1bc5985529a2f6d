module Linear = Cet_disasm.Linear

let max_depth = 8

(* A node holds, for the byte path leading to it, how many times it was
   seen at a function start (pos) vs elsewhere (neg). *)
type node = {
  mutable pos : int;
  mutable neg : int;
  children : (int, node) Hashtbl.t;
}

type model = node

let new_node () = { pos = 0; neg = 0; children = Hashtbl.create 4 }

let add_sequence root code off ~positive =
  let node = ref root in
  (try
     for d = 0 to max_depth - 1 do
       if off + d >= String.length code then raise Exit;
       let b = Char.code code.[off + d] in
       let child =
         match Hashtbl.find_opt !node.children b with
         | Some c -> c
         | None ->
           let c = new_node () in
           Hashtbl.replace !node.children b c;
           c
       in
       if positive then child.pos <- child.pos + 1 else child.neg <- child.neg + 1;
       node := child
     done
   with Exit -> ());
  ()

let train corpus =
  let root = new_node () in
  List.iter
    (fun (reader, entries) ->
      match Cet_elf.Reader.find_section reader ".text" with
      | None -> ()
      | Some text ->
        let entry_set = Hashtbl.create (List.length entries) in
        List.iter (fun a -> Hashtbl.replace entry_set a ()) entries;
        let sweep = Linear.sweep_text reader in
        for idx = 0 to Linear.length sweep - 1 do
          let addr = Linear.addr sweep idx in
          let off = addr - text.vaddr in
          if Hashtbl.mem entry_set addr then add_sequence root text.data off ~positive:true
          else if idx land 3 = 0 then
            (* Sample a quarter of the non-entry boundaries as negatives:
               keeps class balance workable, like the original's
               ~10:1 corpus sampling. *)
            add_sequence root text.data off ~positive:false
        done)
    corpus;
  root

let score root code ~off =
  (* Walk as deep as the tree has evidence; score at the deepest node with
     any counts. *)
  let node = ref root in
  let best = ref 0.5 in
  (try
     for d = 0 to max_depth - 1 do
       if off + d >= String.length code then raise Exit;
       let b = Char.code code.[off + d] in
       match Hashtbl.find_opt !node.children b with
       | None -> raise Exit
       | Some child ->
         if child.pos + child.neg > 0 then
           best := float_of_int child.pos /. float_of_int (child.pos + child.neg);
         node := child
     done
   with Exit -> ());
  !best

let classify_st_impl threshold root st =
  match Cet_disasm.Substrate.text st with
  | None -> []
  | Some text ->
    let sweep = Cet_disasm.Substrate.sweep st in
    let hits = ref [] in
    for k = Linear.length sweep - 1 downto 0 do
      let addr = Linear.addr sweep k in
      if score root text.data ~off:(addr - text.vaddr) > threshold then hits := addr :: !hits
    done;
    !hits

let classify_st ?(threshold = 0.5) root st =
  if Cet_telemetry.Span.enabled () then
    Cet_telemetry.Span.with_ ~name:"baseline.byteweight" (fun () ->
        classify_st_impl threshold root st)
  else classify_st_impl threshold root st
