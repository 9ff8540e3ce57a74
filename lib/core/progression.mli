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
    plus the end offset of each entry: the MSA engine's propagation trail
    and the trail mark after each entry's assumption.  Entries and prefix
    unions are built as sets only when asked for.

    Borrowing rule: a progression from {!build_incremental} reads the
    engine's live trail and marks in place instead of copying them, so it
    is valid only until those buffers may next be overwritten — the
    engine's next {!Msa.Engine.narrow} or {!Msa.Engine.sweep}, or a reset
    of its storage by the arena ({!Msa.Engine.epoch} tells).  Every read of a
    stale progression raises [Invalid_argument].  {!make} returns
    progressions that own their arrays. *)

val length : t -> int
(** The number of entries, at least 1 for a built progression. *)

val entry : t -> int -> Assignment.t
(** [entry p r] is [D_r]; [Invalid_argument] outside [0 .. length p - 1]. *)

val prefix : t -> int -> Assignment.t
(** [prefix p r] is [D^∪_r = D₀ ∪ … ∪ D_r]; [Invalid_argument] outside
    [0 .. length p - 1].  The reads of one progression share a cursor: a
    running bitset of some prefix, moved to [r] by setting or clearing
    only the segments in between and then copied out, so the probes of a
    binary search cost O(n) bit operations in all.  Not safe for
    concurrent reads of one progression from several domains. *)

val entries : t -> Assignment.t list
(** Every entry, in order. *)

val learn : Msa.Engine.t -> t -> int -> (unit, [ `Conflict ]) result
(** [learn engine p r] appends [entry p r] to [engine] as a learned
    disjunction ({!Msa.Engine.add_clause_sub}), read in place from the
    trail: GBR's inter-iteration update, on the engine that built [p]. *)

val make :
  cnf:Cnf.t ->
  order:Order.t ->
  learned:Assignment.t list ->
  universe:Assignment.t ->
  (t, [ `Unsat ]) result
(** The progression for [R⁺] over [universe] ([J]), built on a fresh
    engine for the rebuilt formula.  [`Unsat] when that engine conflicts:
    it conflicts only on a clause whose premises are all in [J] and whose
    heads all lie outside it, which [J] violates, and [J] is the last
    prefix union of every progression, so [R⁺] has none over [J].  This
    contradicts GBR's invariants if the caller maintained them, so GBR
    surfaces it as an error rather than an impossible state. *)

val build_incremental :
  engine:Msa.Engine.t ->
  universe:Assignment.t ->
  (t, [ `Conflict ]) result
(** The progression over a persistent engine the caller has already brought
    up to date (fresh from {!Msa.Engine.create}, or after
    {!Msa.Engine.add_clause} of the newly learned set and
    {!Msa.Engine.narrow} to [universe]) — no [r_plus] copy, no re-indexing,
    no sort: the order is the engine's own, and [universe] must be the
    engine's, which keeps it sorted itself ({!Msa.Engine.sweep}).  The
    result borrows the engine's buffers (see {!t}).
    Produces entries equal to {!make}'s on the rebuilt formula;
    [`Conflict] exactly when {!make}'s engine would conflict, so the
    caller answers [`Unsat] as {!make} would.  The engine is left unusable
    on [`Conflict]. *)

val prefix_unions : Assignment.t list -> Assignment.t array
(** [prefix_unions d] is the array [D^∪] with
    [D^∪_r = D₀ ∪ … ∪ D_r]. *)
