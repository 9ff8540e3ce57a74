(** Generalized Binary Reduction (Algorithm 1).

    Given an Input Reduction Problem instance, GBR finds a valid
    failure-inducing sub-input by interleaving black-box predicate runs with
    progression construction.  Each main-loop iteration either returns (the
    head of the progression already fails) or learns one new set — the last
    set of the minimal failing prefix, found by binary search — so the loop
    terminates after at most [|I|] iterations, and every predicate run is on
    a valid sub-input.

    On instances whose constraints are all graph constraints the result is
    locally minimal (Theorem 4.5); in general it is a small — not necessarily
    minimal — solution (see the [(a∧b⇒c)∧(c⇒b)] example in §4.4). *)

open Lbr_logic
open Lbr_sat

type stats = {
  iterations : int;  (** main-loop iterations (learned sets + final check) *)
  predicate_runs : int;  (** underlying predicate executions during reduction *)
  predicate_queries : int;  (** including memoized hits *)
  learned : Assignment.t list;  (** the sets added to 𝓛, oldest first *)
  progression_lengths : int list;  (** length of each progression built *)
}

type error =
  [ `Unsat  (** the constraints admit no sub-input within the search space *)
  | `Predicate_inconsistent
    (** the predicate violated the monotonicity assumption in a detectable
        way: the full prefix of a progression — equal to a set that
        previously satisfied the predicate — no longer does *)
  | `Invariant_violation of string
    (** only with [~check_invariants:true]: an internal invariant (INV-D /
        INV-PRO) failed, indicating a bug in the progression machinery *) ]

val reduce :
  ?check_invariants:bool ->
  ?incremental:bool ->
  ?speculate:'a Speculate.t ->
  Problem.t ->
  order:Order.t ->
  (Assignment.t * stats, error) result
(** Run GBR.  The caller is responsible for the instance assumptions
    ([𝒫(I)], [R_I(I)], monotonicity) — use {!Problem.validate} first when in
    doubt.  The returned assignment satisfies both the constraints and the
    predicate.

    [~speculate] pipelines the otherwise-sequential loop: before each
    predicate verdict lands, the probes both branches would demand next
    are {!Speculate.prefetch}ed onto idle workers, and the losing
    branch's probe is cancelled once the real verdict arrives.  The
    demand sequence, results and statistics are byte-identical to the
    sequential run — speculation only moves pure predicate computation
    off-thread; the caller's predicate is expected to consult the same
    table via {!Speculate.demand} (see [Lbr_frontend.Run]).

    [~incremental:true] (the default) threads one persistent
    {!Msa.Engine}, taken from the domain's {!Msa.Arena.default} and
    returned to it at the end, through every iteration — learned sets are
    appended with {!Msa.Engine.add_clause_sub} and the search space shrunk
    with {!Msa.Engine.narrow}, eliminating the per-iteration [r_plus]
    formula copy and engine re-index.  Each iteration's progression
    borrows the engine's trail ({!Progression.build_incremental}), so GBR
    reads it — the head, the probes, the learned entry and the next
    search space — before that engine's next [narrow].
    [~incremental:false] rebuilds from scratch every iteration (the
    reference oracle); both paths produce byte-identical results and
    statistics.  An engine conflicts only when the search space violates
    [R⁺] (the constraints and the learned sets), so on a conflict, at
    create or in a later iteration, the incremental path answers [`Unsat]
    where the rebuild would meet the same conflict.

    [~check_invariants:true] (default [false]) validates Lemma 4.3's
    invariants on every progression: the entries are non-empty, pairwise
    disjoint and cover the search space (INV-D), and every prefix union is
    a valid sub-input overlapping every learned set (INV-PRO).  Intended
    for tests and debugging — it adds a quadratic pass per iteration. *)
