(** A fixed-size pool of worker domains with a shared work queue.

    Built on stdlib [Domain] + [Mutex] + [Condition] only.  The pool owns
    [jobs] domains for its whole lifetime; work is submitted as thunks and
    handed back through futures, so callers never deal with domains
    directly.  Results are collected in submission order by {!map_list},
    which is what makes parallel corpus runs deterministic: scheduling may
    interleave any way it likes, but the output list order (and every
    non-timing field in it) is the sequential one.

    Nested blocking — calling {!await} from inside a task running on the
    same pool — is not supported and can deadlock (the worker waiting on
    the future is the one that was supposed to run it). *)

type t

type 'a future

val create : ?threads:bool -> jobs:int -> unit -> t
(** Spawn [jobs] worker domains ([jobs >= 1]; [Invalid_argument]
    otherwise).  The workers idle on a condition variable until work
    arrives.  With [~threads:true] the workers are system threads of the
    calling domain instead: for tasks that mostly wait on I/O, which
    gain nothing from parallel domains and would pay for every extra
    domain at each stop-the-world collection. *)

val jobs : t -> int
(** Pool size as given to {!create}. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a thunk.  Raises [Invalid_argument] if the pool was shut
    down.  Exceptions raised by the thunk are captured and re-raised (with
    their original backtrace) by {!await}. *)

val await : 'a future -> 'a
(** Block until the task completes; return its value or re-raise its
    exception.  May be called from any domain, any number of times. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] runs [f] on every element concurrently and
    returns the results in the order of [xs] (not completion order).  If
    several applications raise, the exception of the earliest element is
    re-raised; later tasks still run to completion in the background. *)

val shutdown : t -> unit
(** Finish all queued work, then join every worker domain.  Idempotent;
    subsequent {!submit} calls raise [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown} on both normal return and exception. *)
