(** Seeded program sampler: draws an {!Ir.program} whose function population
    matches a suite {!Profile.t}.

    Every function is assigned one of Figure 3's property classes (end-branch
    at head / direct-jump target / direct-call target / dead) and the
    generator then wires exactly the references that make the class hold:
    direct calls for call targets, tail-call sites for jump targets,
    pointer-taking for address-taken functions, nothing for dead ones.  All
    sampling is deterministic in [seed], [profile] and [index]. *)

val program : seed:int -> profile:Profile.t -> index:int -> Cet_compiler.Ir.program
(** Generate the [index]-th program of a suite.  The result always passes
    {!Cet_compiler.Ir.validate}, which {!Cet_compiler.Codegen.prepare}
    runs before any link. *)
