(** The daemon front end: an accept loop + per-connection wire protocol
    over a {!Addr} listener (Unix socket or TCP), serving one
    {!Scheduler} — with the local runner for [lbr-reduce serve], with the
    cluster coordinator's remote runner for [lbr-reduce coordinate].

    One accept loop (a thread polling with [select] so it can notice a
    stop request), one handler thread per connection.  A connection must
    open with [Hello]; after the [Hello_ok] reply the client may pipeline
    [Submit]/[Submit_seeded] and [Cancel] frames.  Replies and streamed
    job events share the connection under a per-connection write lock.
    A [Hello] carrying any version other than {!Wire.protocol_version}
    gets a [Protocol_error] naming both versions, as does a malformed
    frame, and the connection is closed; a clean EOF just closes it
    (outstanding jobs keep running — results for them are dropped, which
    is fine because they are journaled).

    Lifecycle: {!start} binds the listener (recovering journaled jobs
    first), {!stop} stops admitting, drains in-flight jobs — every
    accepted job reaches a terminal state and its Result frame is written
    — then shuts every connection down (each handler thread closes its
    own fd, so a late job event never reaches a socket that reused the
    number). *)

type config = {
  listen : Addr.t;
  jobs : int;  (** worker domains *)
  queue_depth : int;  (** max jobs waiting (backpressure past this) *)
  journal_dir : string option;  (** enables WAL + crash recovery *)
}

type t

val start : config -> t
(** Build a scheduler + runner, recover its journal, bind and serve in
    background threads.  Raises [Failure] if the address is in use by a
    live daemon (a stale Unix socket file left by a crash is detected by
    a probe connect and replaced; a TCP port in use is never "replaced" —
    see {!Addr.listen}). *)

val serve :
  ?metrics:(unit -> (string * Lbr_obs.Metrics.dump) list) ->
  listen:Addr.t ->
  Scheduler.t ->
  t
(** Serve an already-built scheduler (the coordinator's).  [metrics]
    gives the labelled registry views of [Stats_reply] (default:
    [[("", Lbr_obs.Metrics.dump ())]], this process's registry).
    {!stop} drains the scheduler but closes nothing the caller
    opened. *)

val recovered : t -> int
(** How many journaled in-flight jobs {!start} resumed. *)

val scheduler : t -> Scheduler.t

val metrics : t -> (string * Lbr_obs.Metrics.dump) list
(** The labelled registry views a [Stats_reply] carries now — what the
    [--prometheus-listen] exporter renders. *)

val bound_addr : t -> Addr.t
(** The listening address with the kernel-chosen port filled in — what to
    dial after starting a TCP daemon on port 0. *)

val stop : t -> unit
(** Graceful drain as described above.  Idempotent, blocking. *)

val abort : t -> unit
(** Simulate a crash: close the listener and every connection immediately,
    with no drain and no terminal frames.  In-flight jobs keep running
    detached on their domains; their events go nowhere.  For failover
    tests — production shutdown is {!stop}. *)
