(** The production job runner: executes one wire-submitted reduction.

    One path for every frontend and strategy: the spec's (frontend,
    strategy) pair is resolved by {!Lbr_frontend.Registry.find_for}
    ([""] is [jvm]) and reduced by {!Lbr_frontend.Run.reduce_text}, with
    hooks wired to the scheduler context: [should_stop] polls the
    job's cancel flag, [on_improvement] streams progress, [replay] answers
    from the job's replay table (the journal of a resumed job, or the
    coordinator's seeds) without touching the tool — each answer counted
    in [replayed_runs] and in the process-wide
    [lbr_replayed_verdicts_total] counter — and [execute] runs every other
    predicate run, the validation run included, through a per-job
    [Lbr_runtime.Oracle] carrying the spec's crash policy and retry
    budget, then records the fresh result in the WAL before it is used.
    The result's [tool_executions], [oracle_retries] and [oracle_crashes]
    are the oracle's counters, so a fully replayed job reports zero
    executions.

    Invariant: the simulated clock is charged before [replay], so a
    replayed run produces the same [sim_time] — and hence byte-identical
    reduced outputs and identical non-wall-time stats — as a cold run. *)

val reduce : Scheduler.runner_ctx -> Wire.spec -> (Wire.stats * string, string) result
(** [pool_bytes] is the frontend's own format (LBRC bytes for [jvm]) and
    [tool] its predicate spec (a decompiler name for [jvm], [""] picking
    the first buggy one).  The result's [classes0]/[classes1] slots carry
    the frontend's item counts, which for [jvm] are classes.

    [Error _] on an unknown frontend, an unparsable payload, an invalid
    predicate spec, an input that does not reproduce the failure, or
    constraints the strategy cannot search (J-Reduce on a frontend with a
    non-graph clause).  Raises
    {!Lbr_frontend.Run.Cancelled} when the context's [should_stop] fires,
    and [Lbr_runtime.Oracle.Crashed] under the [Crash_raises] policy — the
    scheduler maps both to terminal job states. *)
