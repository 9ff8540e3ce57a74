(** The daemon front end: an accept loop + per-connection wire protocol
    over a {!Addr} listener (Unix socket or TCP), serving any [backend] —
    the {!Scheduler} for [lbr-reduce serve], the cluster coordinator for
    [lbr-reduce coordinate].

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
    — then closes every socket.  {!run} is the blocking CLI entry: it
    serves until the {!Shutdown} flag fires, then performs the same
    drain. *)

type backend = {
  b_submit :
    on_event:(string -> Scheduler.event -> unit) ->
    seeds:(string * bool) list ->
    Wire.spec ->
    (string, [ `Queue_full of float | `Draining ]) result;
      (** must not invoke [on_event] synchronously (the wire layer holds
          the connection's write lock across admission) *)
  b_cancel : string -> bool;
  b_stats : unit -> Wire.daemon_stats;
  b_drain : unit -> unit;  (** stop admitting; block until in-flight work is done *)
}

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

val start_backend :
  ?scheduler:Scheduler.t ->
  ?journal:Journal.t ->
  ?recovered:int ->
  listen:Addr.t ->
  backend ->
  t
(** Serve an arbitrary backend (the coordinator).  The optional scheduler
    and journal are only adopted for introspection/cleanup; the backend
    owns the real work. *)

val recovered : t -> int
(** How many journaled in-flight jobs {!start} resumed. *)

val scheduler : t -> Scheduler.t
(** Raises [Invalid_argument] on a backend-served daemon without one. *)

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

val run : ?shutdown:Shutdown.t -> config -> unit
(** [start], then block until SIGINT/SIGTERM (or [Shutdown.request] on the
    provided handle), then {!stop}. *)
