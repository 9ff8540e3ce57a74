(** The production job runner: executes one wire-submitted reduction.

    One path for every frontend and strategy.  GBR jobs go through
    {!Lbr_frontend.Run.reduce_text} with the frontend the spec names
    ([""] is [jvm]); J-Reduce and lossy jobs, which exist for [jvm] only,
    go through {!Lbr_harness.Experiment.reduce}.  Both are driven with the
    same hooks, wired to the scheduler context: [should_stop] polls the
    job's cancel flag, [on_improvement] streams progress, and [evaluate]
    routes every predicate run — the validation run included — through

    - the journal replay table first (a resumed job answers already-paid
      evaluations without touching the tool, counted as [replayed_runs]),
    - then a per-job [Lbr_runtime.Oracle] carrying the spec's crash policy
      and retry budget, keyed on the candidate assignment's hex digest —
      the same key the journal and the cluster cache use,

    and records each fresh result in the WAL before it is used.  The
    result's [tool_executions], [oracle_retries] and [oracle_crashes] are
    the oracle's counters, so a fully replayed job reports zero
    executions.

    Invariant: the simulated clock is charged before [evaluate], so a
    replayed run produces the same [sim_time] — and hence byte-identical
    reduced outputs and identical non-wall-time stats — as a cold run. *)

val reduce : Scheduler.runner_ctx -> Wire.spec -> (Wire.stats * string, string) result
(** [pool_bytes] is the frontend's own format (LBRC bytes for [jvm]) and
    [tool] its predicate spec (a decompiler name for [jvm], [""] picking
    the first buggy one).  The result's [classes0]/[classes1] slots carry
    the frontend's item counts, which for [jvm] are classes.

    [Error _] on an unknown frontend, an unparsable payload, an invalid
    predicate spec, an input that does not reproduce the failure, or a
    non-GBR strategy on a frontend other than [jvm].  Raises
    {!Lbr_frontend.Run.Cancelled} when the context's [should_stop] fires,
    and [Lbr_runtime.Oracle.Crashed] under the [Crash_raises] policy — the
    scheduler maps both to terminal job states. *)
