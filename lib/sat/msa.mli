(** Approximate minimal satisfying assignments, [MSA_<].

    A minimal satisfying assignment maps as few variables as possible to
    true; computing one exactly is NP-complete (Ravi–Somenzi), so — like the
    paper — we compute an approximation in polynomial time, driven by a total
    variable order [<]:

    {ul
    {- clauses are read as implications [(⋀ N) ⇒ (⋁ P)];}
    {- a least fixpoint makes variables true only when forced: when all of a
       clause's premises hold and none of its head does, the [<]-smallest
       head variable is turned on;}
    {- on the graph/Horn fragment (single-variable heads) this computes the
       exact least model, which is what Theorem 4.5's minimality relies on.}}

    The {!Engine} exposes the fixpoint incrementally, in two dimensions:

    {ul
    {- {e within} a progression, one {!Engine.assume} per step, each
       variable being processed at most once over the whole progression;}
    {- {e across} GBR iterations, {!Engine.add_clause} appends a learned
       disjunction in place and {!Engine.narrow} shrinks the universe to a
       prefix union — so one engine survives the whole reduction instead of
       re-indexing the growing formula every iteration.}} *)

open Lbr_logic

module Engine : sig
  type t

  type arena
  (** A pool of dead engines.  {!create} with an arena pops a pooled engine
      and resets it in place — arrays are reallocated only when their
      capacity no longer fits, so per-iteration engine churn costs array
      fills instead of fresh solver state. *)

  val create :
    ?arena:arena ->
    Cnf.t ->
    order:Order.t ->
    universe:Assignment.t ->
    (t, [ `Conflict ]) result
  (** Index the formula restricted to [universe] (variables outside it are
      fixed to false) and propagate all zero-premise clauses.  The
      formula's packed arrays ({!Cnf.lits}) are read in place, not copied,
      and the universe is sorted by [order] once (see {!sweep}).  A clause of
      two or more premises is watched on one undrained premise; a clause of
      one premise sits on that premise's static list instead, and both
      kinds fire in decreasing clause order when the premise that
      completes them drains.  An engine popped from an arena is reset in
      place, which moves its {!epoch}.
      [`Conflict] when a clause has all premises inside the initial
      closure but no head inside the universe (on conflict an
      arena-backed shell returns to the pool immediately). *)

  val assume : t -> Var.t -> (unit, [ `Conflict ]) result
  (** Set a variable to true and close under the fixpoint.  The engine is
      monotone: assumptions accumulate.  After a [`Conflict] the engine must
      be discarded. *)

  val assume_all : t -> Var.t list -> (unit, [ `Conflict ]) result

  val add_clause : t -> pos:Var.t list -> (unit, [ `Conflict ]) result
  (** Append the disjunction [⋁ pos] (a learned set) in place — the clause
      state grows incrementally, with no re-indexing of the formula — and
      integrate it into the current fixpoint: if no listed variable is
      already true, the [<]-smallest one inside the universe turns true and
      propagates.  [`Conflict] when the clause has no head inside the
      universe (the engine must then be discarded). *)

  val add_clause_sub : t -> Var.t array -> int -> int -> (unit, [ `Conflict ]) result
  (** [add_clause_sub t a lo hi] is {!add_clause} of [a.(lo) .. a.(hi - 1)],
      read in place — GBR passes the learned entry as its segment of this
      engine's own {!trail}.  A slice out of bounds raises
      [Invalid_argument]. *)

  val narrow : t -> keep:Assignment.t -> (unit, [ `Conflict ]) result
  (** Shrink the universe to [universe ∩ keep], discard every assumption,
      and recompute the base closure.  The recomputation triggers learned
      clauses oldest-first before the original clauses — exactly the
      propagation order of a fresh {!create} on [r_plus], so a
      narrow-then-build is byte-identical to the per-iteration rebuild it
      replaces.  [`Conflict] exactly when that fresh [create] would
      conflict (the engine must then be discarded). *)

  val true_set : t -> Assignment.t
  (** The current closure (the MSA of the formula conditioned on everything
      assumed so far). *)

  val sweep : t -> (int, [ `Conflict ]) result
  (** Assume, in [order]-ascending order, every universe variable that is
      not yet true, closing under the fixpoint after each, until the whole
      universe is true: the entry construction of a progression.  The
      universe is kept sorted by the engine — sorted once by {!create},
      compacted by {!narrow} — so no sweep sorts.
      [Ok k] records [k] marks in {!ends}: the trail position before the
      first assumption and after each one.  [`Conflict] as for {!assume}. *)

  val trail : t -> Var.t array
  (** The engine's live propagation-trail buffer, not a copy: positions
      below the last {!sweep} mark hold every variable made true so far, in
      the order it turned true.  Borrowing rule: read it only while
      {!epoch} still has the value it had when the sweep returned, and
      never write it. *)

  val ends : t -> int array
  (** The live buffer of the last {!sweep}'s marks, under the same
      borrowing rule as {!trail}.  A progression built on the engine is
      the two buffers read together (the core library's
      [Progression.build_incremental]). *)

  val epoch : t -> int
  (** A counter that moves whenever {!trail} or {!ends} may next be
      overwritten in place: every {!narrow}, every {!sweep}, and every
      reset of the engine's storage by {!create}.  A borrowed view is
      valid exactly while the epoch it was taken at is current. *)
end

module Arena : sig
  type t = Engine.arena

  val create : unit -> t

  val default : unit -> t
  (** The calling domain's shared arena (domain-local, so pooled engines
      never cross domains). *)

  val release : t -> Engine.t -> unit
  (** Return an engine to the pool.  The engine must not be used afterwards
      — the next {!Engine.create} on this arena may recycle its storage. *)
end

val compute :
  Cnf.t ->
  order:Order.t ->
  ?universe:Assignment.t ->
  ?required:Assignment.t ->
  unit ->
  Assignment.t option
(** [compute r ~order ~universe ~required ()] is an approximate MSA of
    [(r | required = 1)] restricted to [universe] (default: the formula's
    variables together with [required]).  Falls back to a solved model
    ({!Solver}) plus greedy minimization when the fixpoint meets a conflict
    (possible only outside the implication fragment, e.g. purely negative
    clauses).  [None] when unsatisfiable. *)
