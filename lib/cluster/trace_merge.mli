(** Merging per-node trace dumps into a single Chrome trace.

    Each node's dump carries its own clock epoch plus the wall-clock
    instants on both ends of the dump request; the merger uses the
    half-RTT midpoint to estimate per-node clock skew and places every
    node on one corrected timeline — one Chrome [pid] lane per node,
    named by a [process_name] metadata record, with flow arrows linking
    each [coordinator.job] span to the worker-side events that carry its
    span id as [ctx.parent].

    Dumps can come from two sources: {!fetch} pulls a live daemon over
    [Trace_dump_request], and {!read_file} loads a [.tdump]
    capture written earlier by {!write_file} (the e2e harness dumps each
    worker {e before} killing one, so the victim's spans survive into
    the merged trace).  Dumps sharing a node name collapse into one
    deduplicated lane. *)

type node_dump = {
  nd_node : string;  (** lane label (the daemon's bound address) *)
  nd_epoch : float;  (** node-clock second its [ts = 0] maps to *)
  nd_server_now : float;  (** node clock at dump time *)
  nd_client_mid : float;  (** dumper clock at (roughly) the same instant *)
  nd_dropped : int;
  nd_events : Lbr_obs.Trace.event list;
}

val fetch : string -> (node_dump, string) result
(** Pull a live daemon's span rings; the address string is parsed by
    {!Lbr_server.Addr.parse}. *)

val skew : node_dump -> float
(** Estimated clock offset: add to node-clock times to get dumper time. *)

val to_string : node_dump -> string
(** Binary [.tdump] form: "LBRTD1" magic, a header in
    {!Lbr_codec.Codec} primitives, then the events in the wire encoding. *)

val of_string : string -> (node_dump, string) result
(** Total: [Ok] or [Error], never an exception. *)

val write_file : string -> node_dump -> unit
val read_file : string -> (node_dump, string) result

val merge : node_dump list -> string
(** The merged Chrome trace JSON ([traceEvents] + [epochSeconds]). *)
