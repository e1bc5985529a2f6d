(* The fixture library: one export per way a tool reaches it (through
   [open], a [module X = P] alias, a [let module X = P in] alias and an
   alias that another module of the tool declares), one that only this
   module uses, and one that only a test names. *)

let via_open () = 1
let via_alias () = 2
let via_let_module () = 3
let via_unit_alias () = 4
let own_only x = x + 1
let uses_own () = own_only 5
let test_only () = 6
