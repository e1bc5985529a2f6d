(* The assembler as a list of items with string labels: the vocabulary
   the encoding tests and the two-pass oracle ([Oracle_asm]) speak, over
   the [Cet_x86.Asm] emitter the compiler drives.  [assemble] numbers the
   labels in order of first appearance, emits the items into one section
   (those from index [side] on through a side buffer appended at the
   end, which must come out the same), and asks [resolve] for the labels
   the items reference but never define. *)

module Asm = Cet_x86.Asm
module Insn = Cet_x86.Insn
module Register = Cet_x86.Register

type item =
  | Label of string
  | Ins of Insn.t
  | Call_lbl of string
  | Jmp_lbl of string
  | Jcc_lbl of Insn.cond * string
  | Lea_lbl of Register.t * string
  | Push_lbl of string
  | Mov_mi_lbl of Insn.mem * string
  | Jmp_table_lbl of { table : string; index : Register.t; scale : int; notrack : bool }
  | Table of { entries : string list; entry_size : int }
  | Align of int  (** NOP padding up to a multiple of the boundary *)

(* The section, its label addresses (-1 where undefined) and the label
   names, both indexed by label. *)
let emit ?(side = max_int) ~arch ~base items =
  let ids = Hashtbl.create 16 and names = ref [] in
  let id l =
    match Hashtbl.find_opt ids l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids l i;
      names := l :: !names;
      i
  in
  let section = Asm.create ~arch ~base in
  let later = Asm.side section in
  List.iteri
    (fun k item ->
      let t = if k < side then section else later in
      match item with
      | Label l -> Asm.define t (id l)
      | Ins i -> Asm.ins t i
      | Call_lbl l -> Asm.call t (id l)
      | Jmp_lbl l -> Asm.jmp t (id l)
      | Jcc_lbl (c, l) -> Asm.jcc t c (id l)
      | Lea_lbl (r, l) -> Asm.lea t r (id l)
      | Push_lbl l -> Asm.push t (id l)
      | Mov_mi_lbl (m, l) -> Asm.mov_mi t m (id l)
      | Jmp_table_lbl { table; index; scale; notrack } ->
        Asm.jmp_table t ~table:(id table) ~index ~scale ~notrack
      | Table { entries; entry_size } -> Asm.table t ~entry_size (List.map id entries)
      | Align boundary -> Asm.align t boundary)
    items;
  Asm.append section later;
  let names = Array.of_list (List.rev !names) in
  (section, Asm.addresses section (Array.length names), names)

(* The section size and the address of every label the items define. *)
let layout ~arch ~base items =
  let t, addrs, names = emit ~arch ~base items in
  let labels = Hashtbl.create 16 in
  Array.iteri (fun i a -> if a <> -1 then Hashtbl.replace labels names.(i) a) addrs;
  (Asm.size t, labels)

let assemble ?side ~arch ~base ~resolve items =
  let t, addrs, names = emit ?side ~arch ~base items in
  Array.iteri (fun i a -> if a = -1 then addrs.(i) <- resolve names.(i)) addrs;
  Asm.link t addrs
