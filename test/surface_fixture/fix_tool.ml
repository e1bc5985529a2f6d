(* The fixture's tool: it reaches [Fix]'s exports, each one way. *)

open Surface_fixture.Fix
module F = Surface_fixture.Fix

let () =
  let module L = Surface_fixture.Fix in
  let open Fix_alias in
  print_int
    (via_open () + F.via_alias () + L.via_let_module () + Aliased.via_unit_alias ()
   + uses_own ())
