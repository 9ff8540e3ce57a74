(** Formulas in conjunctive normal form, with the conditioning operations the
    paper's algorithms rely on.

    Conditioning ([R | X = 1] and [R | X = 0]) substitutes constants for
    variables and simplifies: satisfied clauses disappear, falsified literals
    are dropped, and producing the empty clause marks the formula
    unsatisfiable (observable via {!is_unsat}).

    A formula is a packed clause store: one literal array holding every
    clause's premises and then its heads, per-clause start and head
    offsets, and the set of variables that occur.  Loops that read every
    clause use {!lits}, {!starts} and {!heads}; {!clauses} builds the
    clause list for the callers that want one. *)

type t

val make : Clause.t list -> t
(** The conjunction of the clauses, in list order; unsatisfiable when one
    of them is empty. *)

(** A formula built one clause at a time, without a clause list.  Its
    buffers are reused by the next builder of the same domain, so a builder
    must be finished exactly once, and used by one domain. *)
module Builder : sig
  type cnf := t
  type t

  val create : unit -> t

  val add : t -> neg:Var.t array -> pos:Var.t array -> unit
  (** Append the clause [⋀ neg ⇒ ⋁ pos]; both arrays strictly increasing
      (else [Invalid_argument]) and only read during the call.  A
      tautology (a variable on both sides) is dropped; an empty clause
      makes the formula unsatisfiable. *)

  val add_sub : t -> Var.t array -> int -> int -> Var.t array -> int -> int -> unit
  (** [add_sub b neg nlo nhi pos plo phi] is {!add} of the premises
      [neg.(nlo) .. neg.(nhi - 1)] and the heads [pos.(plo) .. pos.(phi - 1)],
      read in place: a caller keeping clauses in shared arrays adds them
      without copying each out.  Slices out of bounds raise
      [Invalid_argument]. *)

  val finish : ?rev:bool -> t -> cnf
  (** The formula of the added clauses, in the order added or, with
      [~rev:true], last added first — the order of a list each clause was
      consed onto. *)
end

val top : t
(** The empty conjunction (always true). *)

val clauses : t -> Clause.t list
(** The remaining clauses, built on each call.  Empty list on an
    unsatisfiable formula does not mean true — check {!is_unsat} first. *)

val lits : t -> Var.t array
(** Every clause's literals, clause after clause: clause [ci]'s premises
    (its negated variables) are [lits.(starts.(ci)) .. lits.(heads.(ci) - 1)]
    and its heads [lits.(heads.(ci)) .. lits.(starts.(ci + 1) - 1)], each
    side strictly increasing.  The arrays are the formula's own: read them,
    never write them. *)

val starts : t -> int array
(** Per clause, where its literals start, then where the last one ends:
    [num_clauses t + 1] entries. *)

val heads : t -> int array
(** Per clause, where its heads start. *)

val is_unsat : t -> bool
(** Whether simplification has derived the empty clause.  [false] does not
    imply satisfiability. *)

val conj : t -> t -> t
val add_clause : t -> Clause.t -> t
val add_clauses : t -> Clause.t list -> t

val vars : t -> Assignment.t
(** All variables occurring in the formula (kept with it, not rebuilt). *)

val max_var : t -> Var.t
(** The largest variable occurring in the formula, [-1] when there is
    none. *)

val num_clauses : t -> int

val holds : t -> Assignment.t -> bool
(** [holds r m] is the paper's [R(M)]: does the assignment that maps exactly
    [m] to true satisfy [r]?  [false] on unsatisfiable formulas. *)

val condition_true : t -> Assignment.t -> t
(** [condition_true r x] is [R | X = 1].  Conditioning lists the surviving
    clauses in reverse order. *)

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
