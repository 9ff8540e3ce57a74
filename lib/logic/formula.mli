(** Propositional formulas and their translation to CNF.

    This is the OCaml counterpart of the paper's Haskell eDSL: the FJI
    constraint generator ([Lbr_fji.Typecheck]) builds formulas with the
    combinators below and then lowers them to {!Cnf.t} once.  (The bytecode
    model emits its clauses directly; see [Lbr_jvm.Constraints].)  The
    formula shapes are shallow — implications whose premise is a
    conjunction of variables and whose conclusion is a small disjunction or
    conjunction — so the naive distribution performed by {!to_cnf} never
    explodes in practice. *)

type t =
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t

val var : Var.t -> t
val conj : t list -> t
val disj : t list -> t
val imply : t -> t -> t

val to_cnf : t -> Cnf.t
(** Lower to CNF by negation normal form followed by distribution.  The
    translation is equivalence-preserving (no auxiliary variables are
    introduced), so model counts over the original variables are unchanged. *)

val eval : t -> Assignment.t -> bool
(** Evaluate under the assignment that maps exactly the given set to true. *)

val vars : t -> Assignment.t

val size : t -> int
(** Number of connectives and atoms, for diagnostics. *)
