(** Bounded, journaled job scheduler for the reduction service.

    Layered on [Lbr_runtime.Pool]: admitted jobs wait in a two-level
    (high/normal) FIFO; every admission enqueues one dispatch token on the
    pool, and each token — executed by whichever worker domain frees up
    first — pops the highest-priority job waiting {e at that moment}.  So
    priority is decided at dispatch time, results never reorder (each job
    completes independently), and the pool stays a plain FIFO of thunks.

    Backpressure: at most [queue_depth] jobs may be waiting (running jobs
    do not count); past that {!submit} rejects with a retry-after hint
    instead of queueing unboundedly — the caller (the wire layer) turns
    that into a [Rejected] frame.

    Journal: when created with one, every admission is WAL-ed before
    {!submit} returns, every completed predicate evaluation is appended by
    the runner via the context's [record], and terminal states write
    markers.  {!recover} re-admits journaled jobs that never reached a
    terminal state, handing the runner their replay table so already-paid
    predicate executions are not paid again. *)

type status =
  | Queued
  | Running
  | Done of Wire.stats * string  (** stats + reduced LBRC pool bytes *)
  | Failed of string
  | Cancelled

type event =
  | Started
  | Progress of { sim_time : float; classes : int; bytes : int }
  | Evaluated of { key : string; ok : bool; ctx : Lbr_obs.Trace.Context.t option }
      (** one fresh predicate evaluation completed (and, when a journal is
          configured, already WAL-ed) — the feed for the cluster-wide
          verdict cache.  Replayed verdicts do not re-emit.  [ctx] is the
          job's trace context (minted at admission when tracing is live),
          echoed so the wire layer can stamp v5 [Verdict] frames. *)
  | Finished of status

type runner_ctx = {
  job_id : string;
  should_stop : unit -> bool;  (** true once the job is cancelled *)
  progress : float -> int -> int -> unit;  (** (sim_time, classes, bytes) *)
  replay : (string, bool) Hashtbl.t;  (** journal replay memo; empty when cold *)
  record : key:string -> ok:bool -> latency:float -> retries:int -> unit;
      (** WAL a completed predicate evaluation: digest, verdict, wall
          latency (seconds) and extra oracle attempts it took *)
}

type runner = runner_ctx -> Wire.spec -> (Wire.stats * string, string) result
(** Executes one job; [Ok (stats, reduced_pool_bytes)] or [Error reason].
    Raising [Lbr_frontend.Run.Cancelled] ends the job as
    {!Cancelled}; any other exception as {!Failed}.  The production runner
    is {!Runner.reduce}; tests inject stubs. *)

type t

val create :
  runner:runner -> jobs:int -> queue_depth:int -> ?journal:Journal.t -> unit -> t
(** [jobs >= 1] worker domains, [queue_depth >= 1] waiting slots
    ([Invalid_argument] otherwise). *)

val submit :
  t ->
  ?on_event:(string -> event -> unit) ->
  ?seeds:(string * bool) list ->
  Wire.spec ->
  (string, [ `Queue_full of float | `Draining ]) result
(** Admit a job; returns its id.  When tracing is enabled and the spec
    carries no trace context yet, one is minted here and journaled with
    the spec, so the job's identity survives recovery.  [on_event] is
    registered atomically with admission (no events can be missed; it
    also receives the job id, which is not yet known when the callback is
    built) and is invoked from worker domains — it must be thread-safe.  The terminal [Finished]
    event is delivered {e before} the job's state becomes observable via
    {!await}/{!drain}, so a completed drain implies every handler ran.
    [`Queue_full retry_after] is the backpressure path.  [seeds] pre-fills
    the job's replay table with already-paid verdicts (digest key →
    outcome) — the coordinator's shared-cache/failover path; they count as
    replayed runs, exactly like journal recovery. *)

val cancel : t -> string -> bool
(** Request cancellation.  [true] if the job was queued or running; a
    queued job is discarded before it starts, a running job stops at its
    next predicate-run boundary. *)

val status : t -> string -> status option
val await : t -> string -> status
(** Block until the job reaches a terminal state. *)

val recover : t -> int
(** Re-admit journaled jobs with no terminal marker (in admission order,
    exempt from the queue-depth bound — they were admitted once already).
    Returns how many were resumed.  No-op without a journal. *)

val queued : t -> int
val running : t -> int

type job_info = {
  info_id : string;
  info_running : bool;  (** [false] = queued *)
  info_best : (float * int * int) option;
      (** last improvement's (sim_time, classes, bytes), mirrored from the
          job's event stream — nothing is polled from inside the job *)
}

val snapshot : t -> job_info list
(** Every non-terminal job in id order — one consistent view taken under
    the scheduler lock, for the wire layer's [Stats_reply]. *)

val drain : t -> unit
(** Stop admitting and block until every accepted job has reached a
    terminal state. *)

val shutdown : t -> unit
(** {!drain}, then join the worker domains.  Idempotent. *)
