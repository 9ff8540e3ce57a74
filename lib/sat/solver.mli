(** Satisfiability, models and greedy minimization over a {!Cnf.t}, each
    answered by the incremental clause-learning solver ({!Cdcl}) with
    every clause selected.

    This is the general-purpose fallback used when the polynomial MSA engine
    meets a formula outside the fragment produced by the dependency models
    (e.g. purely negative clauses).  Branching first tries [false], then
    each variable's last value, which biases found models towards small
    true-sets. *)

open Lbr_logic

val solve : Cnf.t -> Assignment.t option
(** A satisfying assignment (as the set of true variables over the formula's
    variables; unmentioned variables are false), or [None] if unsatisfiable. *)

val satisfiable : Cnf.t -> bool
(** [Option.is_some (solve cnf)]. *)

val solve_with : Cnf.t -> required:Assignment.t -> Assignment.t option
(** A model that sets all of [required] to true, or [None]: one query with
    [required] assumed. *)

val minimize :
  Cnf.t -> order:Order.t -> required:Assignment.t -> model:Assignment.t -> Assignment.t
(** Greedy minimal-satisfying-assignment extraction: walk the model's true
    variables in reverse [<] order and drop each variable whose removal keeps
    the formula satisfiable under the remaining commitments.  Variables in
    [required] are never dropped.  One solver over the formula restricted to
    [model] answers every candidate, the commitments assumed as literals, so
    the result depends on the satisfiability answers alone.  Exponential in
    the worst case; used only on the fallback path. *)
