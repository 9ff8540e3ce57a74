(** Phase-level performance counters.

    Cheap always-on timing of named phases: wall-clock seconds, call counts
    and minor-heap allocation ({!Gc.minor_words}) per phase, accumulated in
    domain-local tables so instrumented hot paths never contend on a lock.
    The reduction core tags its phases ([sat.engine-create],
    [sat.engine-propagate], [sat.engine-narrow], [sat.engine-add-clause],
    [core.predicate]); {!report} surfaces the totals in the bench output.

    Phases are assumed non-overlapping: nesting {!time} calls double-counts
    the inner phase's seconds in the outer one. *)

type row = {
  name : string;
  calls : int;
  seconds : float;  (** wall-clock, summed over calls *)
  minor_words : float;  (** minor-heap words allocated during the phase *)
}

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f ()] and charges its duration and allocation to the
    calling domain's [name] counter (also on exception). *)

val add : string -> int -> unit
(** [add name n] bumps [name]'s call count by [n] without timing anything —
    for event counters maintained cheaply by the hot path and flushed in
    batches (watch-list visits, arena reuse hits).  Such rows report zero
    seconds and zero minor words. *)

val aggregate : unit -> row list
(** Process-wide totals: the sum over every domain's table (including
    domains that have terminated), sorted by name.  Only meaningful at a
    quiescent point (no domain concurrently inside {!time}); torn reads are
    possible otherwise, though never a crash. *)

val since : before:row list -> after:row list -> row list
(** Rows of [after] minus the matching rows of [before], dropping phases
    with no calls in between. *)

val reset : unit -> unit
(** Zero every table (all domains).  Same quiescence caveat as
    {!aggregate}. *)

val report : row list -> string
(** Human-readable table (phase, calls, seconds, minor words), for the
    bench output. *)
