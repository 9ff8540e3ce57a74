(** Instances of the Input Reduction Problem (Definition 4.1).

    An instance is [(I, 𝒫, R_I)]: a set of variables [I] (the items of the
    original input), a black-box predicate [𝒫] over subsets of [I], and a
    CNF validity formula [R_I] over [I].  The problem assumes both [𝒫(I)]
    and [R_I(I)] hold and that [𝒫] is monotone on valid sub-inputs. *)

open Lbr_logic

type t = {
  pool : Var.Pool.t;  (** the pool [I]'s variables were allocated from *)
  universe : Assignment.t;  (** the variable set [I] *)
  constraints : Cnf.t;  (** the validity formula [R_I] *)
  predicate : Predicate.t;  (** the black box [𝒫] *)
}

val make :
  pool:Var.Pool.t ->
  universe:Assignment.t ->
  constraints:Cnf.t ->
  predicate:Predicate.t ->
  t

val validate : t -> (unit, string) result
(** Check the instance assumptions that are checkable: [R_I(I)] holds, the
    constraints mention only variables of [I], and [𝒫(I)] holds (this runs
    the predicate once). *)
