(** The reduction service's wire protocol.

    Length-prefixed binary frames over a stream socket — a Unix domain
    socket or a TCP connection (see {!Addr}); the framing is
    byte-identical on both transports.  Every integer is big-endian,
    matching [Lbr_jvm.Serialize]'s conventions (the LBRC pool container
    is the payload of submissions and results).

    {v
    frame    := len(u32) payload                  — len = |payload|, ≤ 64 MiB
    payload  := kind(u8) body
    str16    := len(u16) bytes
    bytes32  := len(u32) bytes
    f64      := IEEE-754 bits, 8 bytes big-endian
    bool     := u8, 0 or 1
    ctx      := 0(u8)                             — no trace context
              | 1(u8) trace_id:str16 parent_span:str16
    spec     := tool:str16 strategy:u8 priority:u8 crash_policy:u8
                retries:u16 pool:bytes32 frontend:str16 trace_ctx:ctx
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

    Decoding is total: malformed bytes (bad magic kind, truncated body,
    oversized length, trailing garbage) come back as [Error _] — never an
    exception — because the daemon reads these frames from untrusted
    clients. *)

val protocol_version : int
(** Currently [6].  Both ends of a connection must speak exactly this
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
  metrics_text : string;  (** Prometheus text-format metric snapshot *)
}

type trace_dump = {
  node : string;  (** the daemon's lane label (its bound address) *)
  epoch : float;  (** absolute second its trace [ts = 0] maps to *)
  server_now : float;
      (** its wall clock when the dump was taken — the merger pairs this
          with its own request/reply timestamps to estimate clock skew *)
  dropped : int;
  events : Lbr_obs.Trace.event list;
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
          emitted after the verdict is journaled.  The coordinator folds
          these into the cluster-wide verdict cache as they happen, so a
          job's paid executions survive its worker.  [ctx] echoes the
          job's trace context so the receiver can attribute the
          evaluation to the right distributed trace. *)
  | Trace_dump_request  (** client → server: ask for the node's span rings. *)
  | Trace_dump_reply of trace_dump
  | Metrics_dump_request
      (** client → server: ask for the node's metric registry. *)
  | Metrics_dump_reply of { node : string; dump : Lbr_obs.Metrics.dump }
      (** The registry snapshot the coordinator's federation loop merges
          ({!Lbr_obs.Metrics.merge_dumps}). *)

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

val trace_events_to_string : Lbr_obs.Trace.event list -> string
(** Standalone trace-event-list serialization — byte-identical to the
    events section of a [Trace_dump_reply] payload.  Reused by
    [trace-merge]'s .tdump capture files. *)

val trace_events_of_string : string -> (Lbr_obs.Trace.event list, string) result
(** Total: [Ok] or [Error], never an exception. *)
