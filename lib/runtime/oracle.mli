(** Retries and crash policy around a black-box run.

    [Lbr.Predicate] assumes the black box always returns; real tools
    (decompiler + compiler pipelines) are flaky — they crash or fail
    transiently under load.  An oracle wraps one black-box run with:

    - retry for failures classified as transient by [config.transient];
    - crash classification: once retries are exhausted, or on a
      non-transient exception, the attempt is mapped by [crash_policy] to
      a [false] outcome, a [true] outcome, or a {!Crashed} exception.

    An oracle remembers nothing: every {!run} executes.  Verdicts are
    memoized once per reduction, by [Lbr.Predicate] above it, and already
    known ones (a journal, cluster seeds) are answered by
    [Lbr_frontend.Run] before an oracle is reached.

    Concurrency contract: {!run} may be called from any number of domains.
    Counters are mutex-guarded and exact. *)

type crash_policy =
  | Crash_fails  (** a crashed run counts as "bug not reproduced" *)
  | Crash_passes  (** a crashed run counts as "bug reproduced" *)
  | Crash_raises  (** escalate as {!Crashed} to the caller *)

type config = {
  retries : int;  (** extra attempts after the first, for transient failures *)
  crash_policy : crash_policy;
  transient : exn -> bool;  (** which exceptions are worth retrying *)
}

val default_config : config
(** No retries, [Crash_raises], nothing transient — the strict behaviour
    of a bare predicate. *)

exception Crashed of { oracle : string; attempts : int; reason : string }
(** Raised under [Crash_raises] when every attempt failed. *)

type t

val make : ?config:config -> ?name:string -> unit -> t

val run : t -> (unit -> bool) -> bool
(** [run t black_box] runs [black_box] with retry and crash
    classification. *)

val executions : t -> int
(** Black-box attempts, including retries. *)

val retries_used : t -> int
(** Attempts beyond the first, summed over all runs. *)

val crashes : t -> int
(** Runs whose outcome came from crash classification. *)
