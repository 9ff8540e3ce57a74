(** A DPLL satisfiability solver, and a satisfiability verdict.

    This is the general-purpose fallback used when the polynomial MSA engine
    meets a formula outside the fragment produced by the dependency models
    (e.g. purely negative clauses).  Branching tries [false] first, which
    biases found models towards small true-sets. *)

open Lbr_logic

val solve : Cnf.t -> Assignment.t option
(** A satisfying assignment (as the set of true variables over the formula's
    variables; unmentioned variables are false), or [None] if unsatisfiable. *)

val satisfiable : Cnf.t -> bool
(** [Option.is_some (solve cnf)], decided by the clause-learning solver
    ({!Cdcl.all_satisfiable}) instead of the DPLL search. *)

val solve_with : Cnf.t -> required:Assignment.t -> Assignment.t option
(** A model that sets all of [required] to true, or [None]. *)

val minimize :
  Cnf.t -> order:Order.t -> required:Assignment.t -> model:Assignment.t -> Assignment.t
(** Greedy minimal-satisfying-assignment extraction: walk the model's true
    variables in reverse [<] order and drop each variable whose removal keeps
    the formula satisfiable (re-solving under the remaining commitments).
    Variables in [required] are never dropped.  Exponential in
    the worst case; used only on the fallback path. *)
