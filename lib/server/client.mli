(** Client side of the reduction service protocol — used by
    [lbr-reduce submit], the cluster coordinator's worker links, and the
    end-to-end tests.

    One connection, synchronous usage: {!connect} performs the
    [Hello]/[Hello_ok] handshake, {!submit} sends one job and blocks —
    streaming [Progress] and [Verdict] frames to the callbacks — until
    its terminal [Result] or [Job_failed] frame arrives. *)

type t

type progress = { sim_time : float; classes : int; bytes : int }

val connect : string -> (t, string) result
(** Connect to a daemon and perform the handshake; a daemon speaking any
    other {!Wire.protocol_version} refuses it.  The address is parsed by
    {!Addr.parse}: a Unix socket path or a TCP [host:port]. *)

type submit_error =
  [ `Rejected of string * float  (** backpressure: reason, retry-after *)
  | `Job_failed of string  (** the server ran the job and it failed *)
  | `Conn of string  (** transport died — job outcome unknown *) ]

val submit_ex :
  t ->
  ?on_progress:(progress -> unit) ->
  ?on_verdict:(key:string -> ok:bool -> unit) ->
  ?on_accepted:(string -> unit) ->
  ?seeds:(string * bool) list ->
  Wire.spec ->
  (string * Wire.stats * string, submit_error) result
(** Like {!submit} but with a typed error, so a caller that owns retry
    policy (the cluster coordinator) can tell a dead worker ([`Conn] —
    fail over) from a job that genuinely failed ([`Job_failed] — report). *)

val submit :
  t ->
  ?on_progress:(progress -> unit) ->
  ?on_verdict:(key:string -> ok:bool -> unit) ->
  ?on_accepted:(string -> unit) ->
  ?seeds:(string * bool) list ->
  Wire.spec ->
  (string * Wire.stats * string, string) result
(** [Ok (job_id, stats, reduced_pool_bytes)] once the job completes.
    [Error _] on rejection (backpressure/draining — the message includes
    the server's retry-after hint), job failure, or a broken/closed
    connection (e.g. the daemon drained and shut down mid-stream).

    [on_accepted] fires with the server-side job id as soon as admission
    is confirmed — the handle a caller needs to {!cancel} from another
    connection.  [on_verdict] fires per fresh predicate evaluation.
    [seeds] ships already-paid verdicts with the submission
    ([Submit_seeded]). *)

val cancel : t -> string -> (bool, string) result
(** Ask the server to cancel a job; [Ok found] echoes whether the server
    still knew a cancellable job by that id. *)

val stats : t -> (Wire.daemon_stats, string) result
(** One live introspection snapshot (queue depth, per-job best-so-far,
    the node's label and its labelled metric views). *)

val trace_dump : t -> (Lbr_obs.Tdump.node_dump, string) result
(** Pull the daemon's span rings ([Trace_dump_request]).  [nd_client_mid]
    is this side's wall clock at the midpoint of the request; with
    [nd_server_now] it estimates the node's clock skew. *)

val metrics_dump : t -> (string * Lbr_obs.Metrics.dump, string) result
(** The daemon's own metric registry, from one {!stats} snapshot —
    [(node, dump)] where [dump] is its [""] view, mergeable with
    {!Lbr_obs.Metrics.merge_dumps}. *)

val close : t -> unit
