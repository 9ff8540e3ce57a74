(** Formulas in conjunctive normal form, with the conditioning operations the
    paper's algorithms rely on.

    Conditioning ([R | X = 1] and [R | X = 0]) substitutes constants for
    variables and simplifies: satisfied clauses disappear, falsified literals
    are dropped, and producing the empty clause marks the formula
    unsatisfiable (observable via {!is_unsat}). *)

type t

val make : Clause.t list -> t
val of_clauses : Clause.t list -> t
(** Alias of {!make}. *)

val top : t
(** The empty conjunction (always true). *)

val clauses : t -> Clause.t list
(** The remaining clauses.  Empty list on an unsatisfiable formula does not
    mean true — check {!is_unsat} first. *)

val is_unsat : t -> bool
(** Whether simplification has derived the empty clause.  [false] does not
    imply satisfiability. *)

val conj : t -> t -> t
val add_clause : t -> Clause.t -> t
val add_clauses : t -> Clause.t list -> t

val vars : t -> Assignment.t
(** All variables occurring in the formula. *)

val num_clauses : t -> int

val holds : t -> Assignment.t -> bool
(** [holds r m] is the paper's [R(M)]: does the assignment that maps exactly
    [m] to true satisfy [r]?  [false] on unsatisfiable formulas. *)

val condition_true : t -> Assignment.t -> t
(** [condition_true r x] is [R | X = 1]. *)

val condition_false : t -> Assignment.t -> t
(** [condition_false r x] is [R | X = 0]. *)

val restrict : t -> keep:Assignment.t -> t
(** [restrict r ~keep] sets every variable of [r] outside [keep] to false —
    the restriction used to build [R⁺] in the progression subroutine. *)

(** Corpus statistics over the clause kinds (cf. the paper's "97.5 % edges"
    measurement). *)
type stats = {
  total : int;
  unit_pos : int;
  unit_neg : int;
  edges : int;
  horn : int;
  general : int;
}

val stats : t -> stats

val graph_fraction : t -> float
(** Fraction of clauses representable as graph constraints (unit-positive or
    edge); [1.0] on the empty formula. *)

val pp : Var.Pool.t -> Format.formatter -> t -> unit

(** Packed, mutable view of a formula for search-heavy algorithms.

    All literals live in one flat int array with per-variable occurrence
    lists; conditioning assigns a variable and bumps per-clause counters
    instead of rebuilding clause lists, and an explicit trail makes undo
    proportional to the number of assignments.  One [Packed.make] amortises
    the index build across an entire DPLL search, greedy minimization, or
    model count. *)
module Packed : sig
  type cnf := t
  type t

  val make : cnf -> t
  (** Build the packed index.  O(total literals). *)

  val num_vars : t -> int
  (** One past the largest variable occurring in the formula.  Variables
      [>= num_vars t] are unconstrained. *)

  val num_clauses : t -> int

  val mark : t -> int
  (** Current trail position, for a later {!undo_to}. *)

  val undo_to : t -> int -> unit
  (** Unassign every variable above the mark, clear any pending unit
      propagations except the input's unit clauses (those still queued,
      and those the undo leaves unsatisfied, stay queued), and reset the
      conflict flag.  Costs time proportional to the pending queue and
      the undone trail. *)

  val conflicted : t -> bool
  (** Whether some clause has all literals false under the current
      assignment. *)

  val active_count : t -> int
  (** Number of clauses not yet satisfied. *)

  val value : t -> Var.t -> [ `True | `False | `Unassigned ]

  val assign : t -> Var.t -> bool -> unit
  (** Assign an unassigned variable (< [num_vars]), pushing it on the trail
      and updating clause counters.  Sets the conflict flag if a clause runs
      out of literals; queues clauses that become unit. *)

  val propagate : t -> bool
  (** Drain the unit-propagation queue; [false] iff a conflict was hit. *)

  val search : t -> bool
  (** DPLL search from the current assignment.  On [true] the satisfying
      assignments remain on the trail (read them via {!value} or {!model},
      then {!undo_to}); on [false] the state is left partially wound and the
      caller must {!undo_to} its mark. *)

  val model : t -> Assignment.t
  (** The set of variables currently assigned true. *)

  val solve :
    t -> assume_true:Var.t list -> assume_false:Var.t list -> Assignment.t option
  (** Self-contained satisfiability check under assumptions: assigns the
      assumptions, runs {!search}, extracts the model, and restores the
      state it was called in.  Assumptions on variables [>= num_vars] are
      ignored (they are unconstrained). *)

  val clause_is_active : t -> int -> bool
  (** Whether clause [ci] has no true literal under the current
      assignment. *)

  val clause_unassigned_vars : t -> int -> Var.t list
  (** The unassigned variables of clause [ci], ascending. *)

  val iter_clause_unassigned : t -> int -> (Var.t -> unit) -> unit
  (** Apply [f] to each unassigned variable of clause [ci], ascending —
      {!clause_unassigned_vars} without building the list, for callers that
      fold the variables into reused scratch state. *)
end
