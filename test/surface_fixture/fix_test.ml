(* The fixture's test: it names the one export no tool reaches. *)

let () = assert (Surface_fixture.Fix.test_only () = 6)
