(** The cluster coordinator: one reduction service fronting N worker
    daemons.

    The coordinator is a {!Lbr_server.Scheduler} whose runner delegates
    each job to a worker daemon over a per-job client connection.  It
    speaks the same wire protocol as a single daemon — it is served by
    {!Lbr_server.Server.serve}, so [lbr-reduce submit] and
    [lbr-reduce top] work against it unchanged — and admission,
    priority, backpressure, journaling, recovery, cancel, stats and drain
    are the scheduler's.

    {2 Lanes}

    The scheduler runs [lanes × workers] jobs at once, on system threads
    rather than domains since they only wait on sockets.  Each claims the
    live worker with the fewest delegated jobs once that worker has fewer
    than [lanes]; while every live worker is full it waits.  A free lane
    pulls the next job off the one priority queue, so a wedged worker
    holds up only the lanes it occupies.

    {2 Failover}

    Workers journal every predicate evaluation before streaming it back
    as a [Verdict] frame; the runner stores each verdict in the shared
    {!Cache} as it arrives, and nowhere else: the coordinator's journal
    holds admitted specs, terminal markers and flight dumps, never a
    [preds.log], and the coordinator relays no [Verdict] frames to its
    own clients.  With a journal but no [cache_path], the cache persists
    to [<journal_dir>/verdicts.cache], so a restarted coordinator's
    recovered jobs are seeded from every verdict it was streamed before
    the crash.  When a worker dies mid-job — connection refused, reset, or
    EOF without a terminal frame — it is marked dead and the job is
    resubmitted to a survivor {e seeded} with every cached verdict for
    that job's content digest.  The runner replays those seeds instead of
    re-executing, so the retried run is byte-identical to an
    uninterrupted one and strictly cheaper than starting over.  A job
    that outlives as many failovers as there are workers is failed, as
    is one that finds no live worker.  A worker's [Rejected] is
    backpressure, not death: the runner waits its retry-after hint
    (clamped to 0.05–1 s) and tries again.

    {2 Cancel}

    Once a worker accepts a delegated job, the runner registers its
    remote cancel as the job's [on_cancel] hook; a cancel that arrived
    during the handoff runs it as soon as the remote id is known.

    {2 Tracing}

    When the job has a trace context (the client's, or minted at
    admission when tracing is live), the runner forwards a fresh
    coordinator-side {e job span id} to workers as the parent span.
    Worker-side spans then carry that id as [ctx.parent]; the
    coordinator records one [coordinator.job] span per job (runner start
    → terminal state, with the job span id as its [span_id] arg — the
    cross-node merge key), plus a [cluster.failover] edge per worker
    death.

    {2 Introspection}

    Besides the scheduler's [lbr_jobs_*] and [lbr_queue_depth], the
    process Metrics registry carries [lbr_cluster_cache_{hits,misses}_total],
    [lbr_cluster_failovers_total], [lbr_cluster_workers_alive],
    [lbr_cluster_cache_entries] and one
    [lbr_cluster_w<i>_heartbeat_age_seconds] gauge per worker.  Worker
    registries are pulled only when asked for: {!metrics} pulls each
    live worker's whole registry on the calling thread and lists the
    local registry, each worker's dump and their exact merge as labelled
    views.  The coordinator starts no thread of its own; its lanes run
    on the scheduler's pool. *)

type config = {
  workers : Lbr_server.Addr.t list;  (** at least one; pinged at {!create} *)
  lanes : int;  (** concurrent delegated jobs per worker (>= 1) *)
  queue_depth : int;  (** cluster-wide cap on queued jobs (backpressure) *)
  cache_path : string option;
      (** persist the verdict cache here; [None] with a [journal_dir]
          means [<journal_dir>/verdicts.cache] *)
  journal_dir : string option;  (** coordinator WAL + restart recovery *)
}

type t

val create : config -> t
(** Registers (pings) every worker — raises [Failure] if one is
    unreachable or refuses the handshake — builds the scheduler and
    recovers its journal ({!Lbr_server.Scheduler.recover}: a journaled
    spec that no longer decodes is marked failed).  Starts no thread
    beyond the scheduler's lanes. *)

val scheduler : t -> Lbr_server.Scheduler.t
(** Submit, cancel and inspect jobs here, or serve it with
    {!Lbr_server.Server.serve}. *)

val metrics : t -> (string * Lbr_obs.Metrics.dump) list
(** Pull each live worker's own ([""]) registry view on the calling
    thread, refresh every [lbr_cluster_w<i>_heartbeat_age_seconds]
    gauge (seconds since that worker's registry was last pulled), then
    list the coordinator's labelled registry views, in order: [""] (its
    own registry), one ["wN"] per worker pulled at least once (its last
    good dump — a failed pull keeps the previous one, so merged counters
    never go backwards), then ["cluster"] (the exact
    {!Lbr_obs.Metrics.merge_dumps} of all the others).  What
    [Stats_reply] carries and, through {!Lbr_obs.Metrics.render_views},
    what the [--prometheus-listen] endpoint serves.

    Concurrent calls pull one at a time.  No timeout is applied: a
    worker that accepts a connection but never answers stalls the
    callers that pull it, never the lanes or {!close}.  A flight dump's
    heartbeat ages are those the last call left behind. *)

val close : t -> unit
(** {!Lbr_server.Scheduler.shutdown} (every admitted job reaches a
    terminal state), then close the cache and journal.  Call once, after
    the front end (if any) has stopped. *)

val recovered : t -> int
(** Journaled in-flight jobs {!create} re-admitted (their already-paid
    verdicts are in the persisted cache, and seed them when they run). *)
