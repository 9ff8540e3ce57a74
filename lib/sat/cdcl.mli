(** An incremental CDCL solver over one fixed clause set, answering many
    queries of the form "are the clauses in this subset satisfiable
    together?" — the queries a core extraction makes, each probe a
    subset of the same input's clauses.

    Clause [i] is stored as [¬s_i ∨ C_i], where [s_i] is a selector
    variable of its own.  A query is solved under the assumptions [s_i]
    for its selected clauses only; an unselected clause's selector stays
    free, so the clause is vacuous.  A query may also assume literals of
    the formula's own variables.  Search uses two watched literals,
    first-UIP clause learning and activity branching over the formula's
    own variables; it never branches on a selector.  Every learned clause
    is resolved from selector-guarded clauses without resolving on a
    selector, so it keeps the [¬s_i] of each clause it rests on and stays
    valid for every later query.

    {b Growth.}  Learned clauses are all kept: one per conflict, each of
    at most one literal per variable (occurring formula variables plus
    one selector per clause).  A solver's memory therefore grows with the
    conflicts of every query it has solved, plus at most one stored model
    or core (below) per solved query.  Make one solver per input, not one
    per process.

    {b Stored results.}  A query is first answered from earlier answers,
    each kept as a bitset over clauses:
    - each model found, as the set of clauses it falsifies: a selection
      disjoint from that set is satisfiable;
    - each core found: a selection containing it is unsatisfiable.
    A model found under assumed literals is a model of the clauses, so it
    is stored too, but it answers a query with assumed literals only if it
    agrees with every one of them.  A core found under assumed literals is
    not stored: it may be unsatisfiable only together with them.  Only
    when the stored results do not decide does the solver search.  Either
    way the answer is exact, so a sequence of queries gets the verdicts a
    fresh solver would give each one.

    Clauses are normalised once, by {!create}: repeated literals are
    dropped; a tautology ([x ∨ ¬x ∨ ...]) is always satisfied and never
    joins a core; an empty clause is a core on its own.  Per-variable
    state is sized by the number of variables that occur in the clauses,
    whatever their DIMACS numbers: they are numbered in ascending order.

    A solver is mutable and not thread-safe: use one per domain or
    thread. *)

type t

val create : int array array -> t
(** A solver over clauses given as DIMACS literal arrays (variable [v]
    written [v], its negation [-v]; no [0]).  Clause [i] of the result is
    element [i] of the argument.  The arrays are read, not kept.  Raises
    [Invalid_argument] on a [0] literal. *)

val selection : t -> int array
(** A fresh, empty selection: a bitset over the solver's clauses, clause
    [i] being bit [i mod Sys.int_size] of word [i / Sys.int_size].  Every
    selection passed to {!satisfiable} has this length. *)

val select : int array -> int -> unit
(** [select sel i] adds clause [i] to [sel]. *)

val satisfiable : ?assuming:int list -> t -> int array -> bool
(** Whether the selected clauses are satisfiable together, with the
    DIMACS literals [assuming] (default none) true.  An assumed literal
    whose variable occurs in no clause is ignored.  After a [true] answer
    {!value} reads a model of the clauses that agrees with every other
    assumed literal; after [false], {!core} lists selected clauses that
    are unsatisfiable together with the assumed literals.  Raises
    [Invalid_argument] on a selection of the wrong length or a [0]
    literal. *)

val core : t -> int list
(** After a [false] answer from {!satisfiable}: the clause indices,
    ascending, of a subset of that query's selection that is
    unsatisfiable together with its assumed literals — the selected
    clauses whose assumptions the final conflict analysis reached, or a
    stored core.  Unspecified after a [true] answer. *)

val value : t -> int -> bool
(** After a [true] answer from {!satisfiable}: the value of DIMACS
    variable [v] ([v >= 1]) in a model of the selected clauses.  A
    variable that occurs in no clause reads [false].  Unspecified after a
    [false] answer. *)

val all_satisfiable : int array array -> bool
(** Whether all of the clauses are satisfiable together: one query, on a
    fresh solver, with every clause selected. *)
