(** The cluster-wide, content-addressed verdict cache.

    GBR's dominant cost is black-box predicate execution; the daemon's
    journal already guarantees one {e job} never re-pays an execution
    across a crash.  This cache lifts that guarantee to the cluster: a
    verdict is addressed purely by {e content} — the digest of the job's
    substance (frontend, tool, crash policy, retries, pool bytes) plus the
    digest of the assignment evaluated — so {e any} job on {e any} worker
    that asks the same question gets the answer for free.  The strategy is
    deliberately not part of the key: GBR, J-Reduce and the lossy modes
    all ask the same kind of question of the same tool, and sharing across
    them is the point.

    Persistence is an {!Lbr_server.Append_log} of
    [<32-hex job> <32-hex assignment> 0|1] lines, flushed to the OS per
    entry like the journal's [preds.log] — a kill -9'd coordinator
    restarts with every verdict it ever saw.  A torn last line is
    skipped on load and cut off before the next append; any other
    malformed line is skipped, not fatal.  A coordinator with a journal
    but no explicit path keeps this log at [<journal>/verdicts.cache]:
    it is the only place a coordinator records verdicts.

    In memory a verdict is packed: per job content digest, one buffer
    of 17-byte entries (binary assignment digest and verdict byte) in
    first-store order, and an open-addressing [int array] index over
    them — about 4.5 words per verdict.  There is no bound: every paid
    verdict is kept.

    Thread-safe; every operation takes the cache's internal lock. *)

type t

val create : ?path:string -> unit -> t
(** In-memory cache, persisted to [path] when given (loading whatever the
    file already holds).  Raises [Sys_error] if the path exists and is
    unreadable, or its parent cannot take the log. *)

val job_key : Lbr_server.Wire.spec -> string
(** 32-hex digest of the spec's verdict-relevant content: frontend, tool,
    crash policy, retries and pool bytes — {e not} strategy, priority or
    trace context, which cannot change a verdict. *)

val find : t -> job:string -> key:string -> bool option

val store : t -> job:string -> key:string -> bool -> unit
(** Idempotent: re-storing an existing entry neither rewrites the log nor
    changes the value (first write wins — verdicts are deterministic, so
    a disagreement would mean a faulty tool; the original is kept).  A
    [job] or [key] that is not 32 lowercase hex — the rule [create]
    applies to the log's lines — is skipped: the wire admits any string
    there, and such an entry changes neither the cache nor the log. *)

val seeds : t -> job:string -> (string * bool) list
(** Every cached (assignment digest, verdict) for a job content digest,
    in first-store order — what the coordinator ships as
    [Submit_seeded] seeds. *)

val entries : t -> int
val close : t -> unit
