(** Total variable orders.

    GBR's termination argument and the minimality theorem for graph
    constraints both hinge on a fixed total order [<] of the variables: the
    MSA procedure resolves every disjunctive choice by picking the
    [<]-smallest candidate, and the progression introduces excluded variables
    in [<]-order. *)

open Lbr_logic

type t

val by_creation : Var.Pool.t -> t
(** Variables in the order they were allocated — the default order used
    throughout the paper's examples. *)

val of_list : Var.t list -> t
(** An explicit order; raises [Invalid_argument] on duplicates.  Variables
    not listed compare larger than all listed ones, by identifier. *)

val reversed : t -> t

val rank : t -> Var.t -> int
(** Smaller rank = earlier in the order. *)

val compare : t -> Var.t -> Var.t -> int

val min_of : t -> Assignment.t -> Var.t option
(** The [<]-smallest element of a set. *)

val min_of_array : t -> Var.t array -> keep:(Var.t -> bool) -> Var.t option
(** The [<]-smallest array element satisfying [keep]. *)

val sort : t -> Var.t list -> Var.t list
