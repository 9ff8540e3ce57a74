(** The [PROGRESSION] subroutine of Generalized Binary Reduction.

    [PROGRESSION_{R_I}(𝓛, J)] produces a non-empty list of disjoint subsets
    of [J] whose union is [J], such that every prefix union is a valid
    sub-input ([R_I] restricted to [J] holds on it) that overlaps every
    learned set in [𝓛] (invariant INV-PRO):

    {ul
    {- [R⁺ = R_I ∧ ⋀_{L∈𝓛}(⋁L)], with variables outside [J] set to false;}
    {- [D₀ = MSA_<(R⁺)];}
    {- [D_{k+1} = MSA_<(R⁺ ∧ x | D^∪_k = 1) ∖ D^∪_k] where
       [x = min_< (J ∖ D^∪_k)], until the union reaches [J].}} *)

open Lbr_logic
open Lbr_sat

type t
(** A progression stored once, as one array of variables in entry order
    plus the end offset of each entry.  Built from the MSA engine, the
    array is a copy of the engine's propagation trail and each end is the
    trail mark after the entry's assumption.  Entries and prefix unions
    are built as sets only when asked for. *)

val length : t -> int
(** The number of entries, at least 1 for a built progression. *)

val entry : t -> int -> Assignment.t
(** [entry p r] is [D_r]; [Invalid_argument] outside [0 .. length p - 1]. *)

val prefix : t -> int -> Assignment.t
(** [prefix p r] is [D^∪_r = D₀ ∪ … ∪ D_r], built from the first
    [r + 1] segments; [Invalid_argument] outside [0 .. length p - 1]. *)

val entries : t -> Assignment.t list
(** Every entry, in order. *)

val of_entries : Assignment.t list -> t
(** The same form for entries computed as sets (the fallback solver's):
    [entries (of_entries es)] equals [es]. *)

val make :
  cnf:Cnf.t ->
  order:Order.t ->
  learned:Assignment.t list ->
  universe:Assignment.t ->
  (t, [ `Unsat ]) result
(** The progression for [R⁺] over [universe] ([J]), built on a fresh
    engine for the rebuilt formula, or by the fallback solver when that
    engine conflicts.  [`Unsat] when even the fallback cannot satisfy [R⁺]
    within [J] — which contradicts GBR's invariants if the caller
    maintained them, so GBR surfaces it as an error rather than an
    impossible state. *)

val build :
  cnf:Cnf.t ->
  order:Order.t ->
  learned:Assignment.t list ->
  universe:Assignment.t ->
  (Assignment.t list, [ `Unsat ]) result
(** {!entries} of {!make}. *)

val build_incremental :
  ?sorted:Var.t array ->
  engine:Msa.Engine.t ->
  order:Order.t ->
  universe:Assignment.t ->
  unit ->
  (t, [ `Conflict ]) result
(** The progression over a persistent engine the caller has already brought
    up to date (fresh from {!Msa.Engine.create}, or after
    {!Msa.Engine.add_clause} of the newly learned set and
    {!Msa.Engine.narrow} to [universe]) — no [r_plus] copy, no re-indexing.
    [sorted], when given, must be exactly [universe] in [order]-ascending
    order; the caller can maintain it across iterations by filtering the
    previous iteration's array (the shrunk universe is a subsequence), which
    replaces the per-iteration sort.
    Produces entries equal to {!make}'s on the rebuilt formula;
    [`Conflict] exactly when {!make}'s engine would conflict (the caller
    falls back to {!make}, whose fallback solver handles formulas outside
    the implication fragment).  The engine is left unusable on
    [`Conflict]. *)

val prefix_unions : Assignment.t list -> Assignment.t array
(** [prefix_unions d] is the array [D^∪] with
    [D^∪_r = D₀ ∪ … ∪ D_r]. *)
