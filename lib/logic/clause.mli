(** Disjunctive clauses in implication view.

    A clause [⋁ᵢ ¬nᵢ ∨ ⋁ⱼ pⱼ] is stored as its implication form
    [(⋀ᵢ nᵢ) ⇒ (⋁ⱼ pⱼ)]: [neg] holds the variables that occur negatively
    (the premise) and [pos] the variables that occur positively (the head).
    Both arrays are sorted, duplicate-free, and disjoint (a clause containing
    [x] and [¬x] is a tautology and is never constructed by {!make}). *)

type t = private { neg : Var.t array; pos : Var.t array }

val make : neg:Var.t list -> pos:Var.t list -> t option
(** Build a clause; [None] if the clause is a tautology (shares a variable
    between premise and head). *)

val of_sorted : neg:Var.t array -> pos:Var.t array -> t option
(** Like {!make} for literals already sorted: both arrays must be strictly
    increasing (else [Invalid_argument]).  The clause gets its own copies,
    so a caller may pass one array for many clauses. *)

val make_exn : neg:Var.t list -> pos:Var.t list -> t
(** Like {!make} but raises [Invalid_argument] on tautologies. *)

val unit_pos : Var.t -> t
(** The clause requiring a single variable, e.g. the paper's [\[M\]]. *)

val edge : Var.t -> Var.t -> t
(** [edge x y] is the graph constraint [x ⇒ y]. *)

val of_disjunction : pos:Var.t list -> t
(** A purely positive clause [⋁ pⱼ] — the form conjoined for each learned set
    in GBR's [R⁺]. *)

(** Classification used for the corpus statistics (the paper reports 97.5 % of
    clauses being representable as graph edges). *)
type kind =
  | Unit_pos  (** [⇒ p]: a required variable. *)
  | Unit_neg  (** [n ⇒]: a forbidden variable. *)
  | Edge      (** [n ⇒ p]: exactly one positive and one negative literal. *)
  | Horn      (** [(⋀ n) ⇒ p] with ≥ 2 premises: definite but not an edge. *)
  | General   (** head with ≥ 2 disjuncts (or empty clause). *)

val kind : t -> kind

val is_graph : t -> bool
(** [true] on [Unit_pos] and [Edge] — clauses expressible in J-Reduce's
    dependency-graph language. *)

val num_literals : t -> int

val is_empty : t -> bool
(** The unsatisfiable empty clause. *)

val holds : t -> true_set:(Var.t -> bool) -> bool
(** [holds c ~true_set] evaluates [c] under the total assignment that maps
    exactly the variables satisfying [true_set] to true. *)

val equal : t -> t -> bool
