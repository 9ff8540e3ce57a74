(** The cluster coordinator: one reduction service fronting N worker
    daemons.

    The coordinator speaks the same wire protocol as a single daemon — it
    plugs into {!Lbr_server.Server.start_backend}, so [lbr-reduce submit]
    and [lbr-reduce top] work against it unchanged — but instead of
    running jobs on local domains it delegates each to a worker daemon
    over a per-job client connection.

    {2 Sharding and stealing}

    Admitted jobs are sharded round-robin across the live workers'
    queues.  Each worker is driven by [lanes] pump threads; when a pump's
    own queue drains it steals the {e oldest} job from the {e longest}
    live peer queue, so a cluster is never idle while any queue is
    non-empty.

    {2 Failover}

    Workers journal every predicate evaluation before streaming it back
    as a [Verdict] frame; the coordinator mirrors each verdict into
    the shared {!Cache} (and its own journal) as it arrives.  When a
    worker dies mid-job — connection refused, reset, or EOF without a
    terminal frame — its queued jobs are redistributed and the in-flight
    job is resubmitted to a survivor {e seeded} with every cached verdict
    for that job's content digest.  The runner replays those seeds
    instead of re-executing, so the retried run is byte-identical to an
    uninterrupted one and strictly cheaper than starting over.  A job
    that outlives as many failovers as there are workers is failed.

    {2 Tracing}

    When tracing is live (or the submitting client shipped a trace
    context), every job gets a context whose parent span is a fresh
    coordinator-side {e job span id}, forwarded to workers in the spec.
    Worker-side spans then carry that id as [ctx.parent]; the
    coordinator records one [coordinator.job] span per job (admission →
    terminal state, with the job span id as its [span_id] arg — the
    cross-node merge key), plus [cluster.steal] and [cluster.failover]
    edges for jobs that moved between workers.

    {2 Introspection}

    Queue depths are exported per worker as [lbr_cluster_w<i>_queue_depth]
    gauges, plus [lbr_cluster_cache_{hits,misses}_total],
    [lbr_cluster_{steals,failovers}_total] and the jobs/alive/entries
    family, all in the process Metrics registry (and thus in the
    Prometheus text [lbr-reduce top] renders).  A federation thread
    additionally pulls each worker's whole registry every
    [poll_interval] seconds, maintaining
    [lbr_cluster_w<i>_heartbeat_age_seconds] gauges and the
    [lbr_cluster_spec_waste_ratio] gauge (cancelled / launched
    speculations, cluster-wide); the coordinator's [metrics_text]
    concatenates its local registry, each worker's dump under a
    [worker="wN"] label, and the exact merge under [worker="cluster"]. *)

type config = {
  workers : Lbr_server.Addr.t list;  (** at least one; pinged at {!create} *)
  lanes : int;  (** concurrent delegated jobs per worker (>= 1) *)
  queue_depth : int;  (** cluster-wide cap on queued jobs (backpressure) *)
  cache_path : string option;  (** persist the verdict cache here *)
  journal_dir : string option;  (** coordinator WAL + restart recovery *)
  poll_interval : float;
      (** seconds between federation sweeps; [<= 0] disables the
          background thread (call {!poll_workers} manually) *)
}

type t

val create : config -> t
(** Registers (pings) every worker — raises [Failure] if one is
    unreachable or refuses the handshake — recovers journaled pending
    jobs, and starts the pump threads.  A journaled spec that no longer
    decodes is marked failed ("corrupt journaled spec: …") instead of
    re-admitted. *)

val backend : t -> Lbr_server.Server.backend
(** Plug into {!Lbr_server.Server.start_backend}.  Its [b_drain] waits for
    every admitted job to reach a terminal state, then stops the pumps and
    closes cache + journal. *)

val recovered : t -> int
(** Journaled in-flight jobs {!create} re-admitted (their already-paid
    verdicts were folded into the cache first). *)

val cache : t -> Cache.t

val poll_workers : t -> unit
(** One synchronous federation sweep (what the background thread runs
    every [poll_interval] seconds) — pull each live worker's metric
    registry, refresh heartbeat-age gauges, recompute the speculation
    waste ratio.  Exposed so tests and one-shot tools get a
    deterministic view without sleeping. *)

val federated : t -> (string * Lbr_obs.Metrics.dump) list * Lbr_obs.Metrics.dump
(** [(per_worker, merged)]: each worker's last-pulled registry dump under
    its ["wN"] label, and the exact {!Lbr_obs.Metrics.merge_dumps} of the
    coordinator's own registry with all of them. *)
