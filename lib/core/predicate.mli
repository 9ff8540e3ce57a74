(** Instrumented black-box predicates.

    The paper's [𝒫] can only be invoked, never inspected; everything the
    algorithms learn about it comes from running it.  This wrapper counts
    executions (the evaluation's main cost metric) and memoizes them:
    re-running a decompiler on an input already tried is wasted work.
    This memo is the one verdict cache of a reduction; verdicts known
    from outside it (a journal, cluster seeds) are answered inside the
    black box, by [Lbr_frontend.Run].

    {2 Thread-safety contract}

    All operations may be called concurrently from multiple domains.  The
    memo table and counters are guarded by one mutex per predicate;
    counters are exact (no lost updates).  The black box itself runs
    {e outside} the lock, so concurrent runs proceed in parallel — with
    the consequence that two domains racing on the same uncached input may
    both execute the black box (both executions are counted by {!runs};
    the memo keeps one of the identical results). *)

open Lbr_logic

type t

val make : ?name:string -> (Assignment.t -> bool) -> t
(** [make f] wraps the black box [f]. *)

val name : t -> string

val run : t -> Assignment.t -> bool
(** Evaluate the predicate on a sub-input (given as its true-variable set). *)

val runs : t -> int
(** Number of underlying executions (cache misses). *)

val queries : t -> int
(** Number of {!run} calls, including memoized hits. *)
