(** A resilient predicate oracle.

    [Lbr.Predicate] assumes the black box always returns; real tools
    (decompiler + compiler pipelines) are flaky — they crash, hang, or
    fail transiently under load.  An oracle wraps black-box runs with:

    - a thread-safe memo table keyed by the caller's digest of the input
      (the daemon passes the candidate assignment's hex digest — the same
      key its journal and the cluster cache use), so concurrent reducers
      sharing one oracle never pay for a repeated input;
    - retry with exponential backoff for failures classified as transient
      by [config.transient] (and for advisory timeouts);
    - crash classification: once retries are exhausted, or on a
      non-transient exception, the attempt is mapped by [crash_policy] to
      a [false] outcome, a [true] outcome, or a {!Crashed} exception.

    The timeout is {e advisory}: a black box cannot be preempted from
    within a domain, so an attempt whose wall-clock time exceeds
    [config.timeout] has its result discarded and is treated like a
    transient failure (real deployments would put the tool behind a
    process boundary; the simulated tools here return quickly, and fault
    injection raises instead of sleeping).

    Concurrency contract: {!run} may be called from any number of domains.
    Counters are mutex-guarded and exact.  Concurrent queries for the same
    uncached key are deduplicated in flight: the first caller becomes the
    leader and executes the black box (with retries); the others block until
    the leader settles, then re-read the memo — each waiter still counts as
    a query, and a waiter answered from the leader's memoized result counts
    as a memo hit.  If the leader raised instead of memoizing
    ([Crash_raises]), one waiter takes over as the new leader, so a
    transiently-crashing input costs one full retry ladder per waking
    caller, never duplicate concurrent executions. *)

type crash_policy =
  | Crash_fails  (** a crashed run counts as "bug not reproduced" *)
  | Crash_passes  (** a crashed run counts as "bug reproduced" *)
  | Crash_raises  (** escalate as {!Crashed} to the caller *)

type config = {
  timeout : float option;  (** advisory per-attempt wall-clock budget, seconds *)
  retries : int;  (** extra attempts after the first, for transient failures *)
  backoff : float;  (** sleep [backoff * 2^(k-1)] seconds before retry [k] *)
  crash_policy : crash_policy;
  transient : exn -> bool;  (** which exceptions are worth retrying *)
}

val default_config : config
(** No timeout, no retries, no backoff, [Crash_raises], nothing
    transient — the strict behaviour of a bare predicate. *)

exception Crashed of { oracle : string; attempts : int; reason : string }
(** Raised under [Crash_raises] when every attempt failed. *)

type t

val make : ?config:config -> ?name:string -> unit -> t
(** A fresh oracle with an empty memo. *)

val name : t -> string

val run : t -> key:string -> (unit -> bool) -> bool
(** [run t ~key black_box] answers [key] from the memo, or runs
    [black_box] with retry and crash classification and memoizes the
    outcome under [key].  The caller guarantees that equal keys name equal
    inputs.  Outcomes produced by crash classification ([Crash_fails] /
    [Crash_passes]) are memoized too: a deterministic black box would
    crash again. *)

val queries : t -> int
(** Total {!run} calls. *)

val executions : t -> int
(** Black-box attempts, including retries. *)

val memo_hits : t -> int

val retries_used : t -> int
(** Attempts beyond the first, summed over all inputs. *)

val timeouts : t -> int
(** Attempts whose wall-clock time exceeded [config.timeout]. *)

val crashes : t -> int
(** Keys whose outcome came from crash classification. *)

val reset : t -> unit
(** Clear the memo table and all counters. *)
