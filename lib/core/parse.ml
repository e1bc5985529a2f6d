module Reader = Cet_elf.Reader
module Linear = Cet_disasm.Linear
module Substrate = Cet_disasm.Substrate

type plt_map = { plt_lo : int; plt_hi : int; entries : (int * string) list }

let plt_entry_size = 16

let plt reader =
  match Reader.find_section reader ".plt" with
  | None -> { plt_lo = 0; plt_hi = 0; entries = [] }
  | Some s ->
    let relocs = Reader.plt_relocs reader in
    let entries =
      List.mapi (fun i (_slot, name) -> (s.vaddr + ((i + 1) * plt_entry_size), name)) relocs
    in
    { plt_lo = s.vaddr; plt_hi = s.vaddr + s.size; entries }

let plt_name map addr = List.assoc_opt addr map.entries

let in_plt map addr = addr >= map.plt_lo && addr < map.plt_hi && map.plt_hi > 0

let indirect_return_imports =
  [ "setjmp"; "_setjmp"; "sigsetjmp"; "savectx"; "vfork"; "getcontext" ]

let plt_st st =
  let reader = Substrate.reader st in
  match Substrate.diag_collector st with
  | None -> plt reader
  | Some diag -> (
    try plt reader
    with e ->
      Cet_util.Diag.Collector.addf diag ~domain:"core" ~code:"plt"
        "PLT map unavailable, indirect-return filtering disabled: %s" (Printexc.to_string e);
      { plt_lo = 0; plt_hi = 0; entries = [] })

(* The slots are resolved once per binary; then one pass over the call
   targets keeps the calls into them, in call-site (address) order. *)
let indirect_return_calls map (ix : Substrate.indexes) =
  let slots =
    List.filter_map
      (fun (slot, name) ->
        if in_plt map slot && List.mem name indirect_return_imports then Some slot else None)
      map.entries
    |> Array.of_list |> Linear.sort_dedup_ints
  in
  if Array.length slots = 0 then [||]
  else begin
    let ks = ref [] in
    for k = Array.length ix.Substrate.call_tgts - 1 downto 0 do
      if Linear.mem_sorted slots ix.Substrate.call_tgts.(k) then ks := k :: !ks
    done;
    Array.of_list !ks
  end
