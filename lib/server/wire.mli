(** The reduction service's wire protocol.

    Length-prefixed binary frames over a stream socket — a Unix domain
    socket or a TCP connection (see {!Addr}); the framing is
    byte-identical on both transports.  Every field is an
    {!Lbr_codec.Codec} primitive ([u8 u16 u32 i64 f64 bool str16
    bytes32], big-endian), as in the LBRC pool container that is the
    payload of submissions and results.

    {v
    frame    := len(u32) payload                  — len = |payload|, ≤ 64 MiB
    payload  := kind(u8) body
    ctx      := 0(u8)                             — no trace context
              | 1(u8) trace_id:str16 parent_span:str16
    spec     := tool:str16 strategy:u8 priority:u8 crash_policy:u8
                retries:u16 pool:bytes32 frontend:str16 trace_ctx:ctx
    job_stat := id:str16 running:bool best:bool sim_time:f64 classes:u32
                bytes:u32                         — best = false: zeros
    stats    := queued:u32 running:u32 n:u16 job_stat{n} uptime:f64
                node:str16 m:u16 (label:str16 dump:bytes32){m}
                                                  — dump = LBRM1
    v}

    Every field of every frame is always written: a payload decodes by
    its layout alone, never by how many bytes remain.

    A connection starts with the handshake: the client sends
    [Hello protocol_version] and the server answers [Hello_ok] with the
    same version — or [Protocol_error] and closes if the versions
    differ.  After that the client may pipeline requests; the server
    interleaves [Accepted]/[Rejected]/[Cancel_ok] replies with streamed
    [Progress] and [Verdict] events and a terminal [Result]/[Job_failed]
    per job.

    Decoding is total: malformed bytes (unknown kind, truncated body,
    oversized length or count, trailing garbage) come back as
    [Error _] — never an exception — because the daemon reads these
    frames from untrusted clients; every read goes through
    {!Lbr_codec.Codec.read}. *)

val protocol_version : int
(** Currently [8].  Both ends of a connection must speak exactly this
    version. *)

val max_frame : int
(** Hard ceiling on a frame payload (64 MiB); larger lengths are rejected
    during {!read_message} without allocating. *)

type priority = Normal | High

type spec = {
  tool : string;  (** decompiler name; [""] = first buggy one server-side *)
  strategy : Lbr_frontend.Run.strategy;
      (** the search the runner drives; every strategy runs on every
          frontend that can express it ({!Lbr_frontend.Run.strategy}) *)
  priority : priority;
  crash_policy : Lbr_runtime.Oracle.crash_policy;
      (** how the job's oracle classifies tool crashes *)
  retries : int;  (** oracle retries for transient tool failures *)
  pool_bytes : string;
      (** the serialized workload to reduce: an LBRC class pool for the
          JVM frontend, the frontend's own text format otherwise *)
  frontend : string;
      (** which {!Lbr_frontend.Registry} frontend interprets
          [pool_bytes].  For non-JVM frontends [tool] carries the frontend's predicate
          spec, and the result's [stats.classes0]/[classes1] carry the
          frontend's item counts. *)
  trace_ctx : Lbr_obs.Trace.Context.t option;
      (** the job's distributed trace context.  Minted by whichever
          node admits the job first (coordinator or scheduler), carried
          with the spec everywhere it goes — wire, journal, failover
          reseeds — and installed around the runner so every span the
          job records, on any node, parents under the same span id.
          Never part of the verdict cache key. *)
}

type stats = {
  ok : bool;
  predicate_runs : int;
  replayed_runs : int;  (** predicate runs answered from the journal *)
  tool_executions : int;  (** actual black-box attempts, incl. retries *)
  oracle_retries : int;
  oracle_crashes : int;
  sim_time : float;
  wall_time : float;
  classes0 : int;
  classes1 : int;
  bytes0 : int;
  bytes1 : int;
}

type job_stat = {
  js_id : string;
  js_running : bool;  (** [false] = still queued *)
  js_best : (float * int * int) option;
      (** latest improvement's (sim_time, classes, bytes); [None] before
          the first one *)
}

type daemon_stats = {
  queued_jobs : int;
  running_jobs : int;
  job_stats : job_stat list;  (** every non-terminal job, id order *)
  uptime : float;  (** seconds since the daemon started *)
  node : string;  (** the daemon's lane label (its bound address) *)
  metrics : (string * Lbr_obs.Metrics.dump) list;
      (** labelled registry views, each an LBRM1 dump
          ({!Lbr_obs.Metrics.encode_dump}): [""] is the answering node's
          own registry and comes first; a coordinator then adds one
          ["wN"] view per polled worker and ["cluster"], their exact
          {!Lbr_obs.Metrics.merge_dumps} with its own.
          {!Lbr_obs.Metrics.render_views} turns them into Prometheus
          text. *)
}

type message =
  | Hello of int  (** client → server: the client's protocol version *)
  | Hello_ok of int  (** server → client: the same version, accepted *)
  | Submit of spec
  | Submit_seeded of { spec : spec; seeds : (string * bool) list }
      (** client → server: submit plus pre-paid predicate verdicts
          (digest key, outcome) that seed the job's replay table — the
          coordinator's failover and shared-cache path.  Replayed
          verdicts count in [stats.replayed_runs], not tool executions. *)
  | Accepted of string  (** job id *)
  | Rejected of { reason : string; retry_after : float }
      (** backpressure: the queue is full; retry in [retry_after] seconds *)
  | Cancel of string
  | Cancel_ok of { job_id : string; found : bool }
  | Progress of { job_id : string; sim_time : float; classes : int; bytes : int }
  | Result of { job_id : string; stats : stats; pool_bytes : string }
  | Job_failed of { job_id : string; reason : string }
  | Protocol_error of string
  | Stats_request  (** client → server: live introspection snapshot *)
  | Stats_reply of daemon_stats
  | Verdict of {
      job_id : string;
      key : string;
      ok : bool;
      ctx : Lbr_obs.Trace.Context.t option;
    }
      (** server → client: one frame per {e fresh} predicate evaluation,
          emitted after the verdict is journaled.  Only the node that ran
          the tool streams them — a worker daemon — and the coordinator
          is their only consumer: it folds them into the cluster-wide
          verdict cache as they happen, so a job's paid executions
          survive its worker, and relays none to its own clients.
          [ctx] echoes the job's trace context so the receiver can
          attribute the evaluation to the right distributed trace. *)
  | Trace_dump_request  (** client → server: ask for the node's span rings. *)
  | Trace_dump_reply of Lbr_obs.Tdump.node_dump
      (** server → client: the node's label, trace epoch, wall clock at
          dump time, dropped-event count and events (encoded by
          {!Lbr_obs.Tdump.w_trace_events}).  [nd_client_mid] is not
          sent: the decoder sets it to [nd_server_now], and
          {!Client.trace_dump} stamps the requester's own midpoint. *)

(* ------------------------------------------------------------------ *)

val encode : message -> string
(** Full frame: length prefix + payload. *)

val decode_payload : string -> (message, string) result
(** Parse one payload (no length prefix).  Total: any input produces
    [Ok] or [Error], never an exception. *)

val write_message : Unix.file_descr -> message -> unit
(** Write one frame; may raise [Unix.Unix_error] (e.g. [EPIPE]) if the
    peer is gone. *)

val read_message :
  Unix.file_descr -> (message, [ `Closed | `Malformed of string ]) result
(** Read one frame.  [`Closed] on clean EOF at a frame boundary;
    [`Malformed] on truncation mid-frame, oversized length, or a payload
    that does not decode. *)

(* ------------------------------------------------------------------ *)

val spec_to_string : spec -> string
(** Standalone spec serialization — the same bytes as a [Submit] body,
    reused by the journal to persist accepted jobs. *)

val spec_of_string : string -> (spec, string) result
