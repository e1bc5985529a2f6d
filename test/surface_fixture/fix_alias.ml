(* An alias that another module of the fixture's tool opens. *)

module Aliased = Surface_fixture.Fix
