module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate

type endbr_location =
  | At_function_entry
  | After_indirect_return_call
  | At_landing_pad
  | Elsewhere

let classify_endbrs_st st ~truth =
  let ix = Substrate.indexes st in
  let truth_set = Hashtbl.create (max 16 (List.length truth)) in
  List.iter (fun a -> Hashtbl.replace truth_set a ()) truth;
  let pads = Substrate.landing_pads st in
  (* Return addresses in call-site order, hence sorted. *)
  let ir_returns =
    Array.map
      (fun k -> ix.Substrate.call_rets.(k))
      (Parse.indirect_return_calls (Parse.plt_st st) ix)
  in
  List.map
    (fun e ->
      let loc =
        if Hashtbl.mem truth_set e then At_function_entry
        else if Linear.mem_sorted ir_returns e then After_indirect_return_call
        else if Linear.mem_sorted pads e then At_landing_pad
        else Elsewhere
      in
      (e, loc))
    (Array.to_list ix.Substrate.endbrs)

type props = {
  endbr_at_head : bool;
  dir_jmp_target : bool;
  dir_call_target : bool;
}

let function_props_st st ~truth =
  let ix = Substrate.indexes st in
  List.map
    (fun entry ->
      ( entry,
        {
          endbr_at_head = Linear.mem_sorted ix.Substrate.endbrs entry;
          dir_jmp_target = Linear.mem_sorted ix.Substrate.jmp_targets entry;
          dir_call_target = Linear.mem_sorted ix.Substrate.call_targets entry;
        } ))
    truth

let props_key p =
  match (p.endbr_at_head, p.dir_jmp_target, p.dir_call_target) with
  | true, false, false -> "endbr"
  | true, false, true -> "endbr+call"
  | true, true, false -> "endbr+jmp"
  | true, true, true -> "endbr+jmp+call"
  | false, false, true -> "call"
  | false, true, true -> "jmp+call"
  | false, true, false -> "jmp"
  | false, false, false -> "none"
