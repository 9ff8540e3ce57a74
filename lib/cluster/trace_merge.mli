(** Merging per-node trace dumps into a single Chrome trace.

    Each node's dump carries its own clock epoch plus the wall-clock
    instants on both ends of the dump request; the merger uses the
    half-RTT midpoint to estimate per-node clock skew and places every
    node on one corrected timeline — one Chrome [pid] lane per node,
    named by a [process_name] metadata record, with flow arrows linking
    each [coordinator.job] span to the worker-side events that carry its
    span id as [ctx.parent].

    Dumps can come from two sources: {!fetch} pulls a live daemon over
    [Trace_dump_request], and {!read_file} loads a [.tdump] capture —
    one written earlier by [trace-dump] (the e2e harness dumps each
    worker {e before} killing one, so the victim's spans survive into
    the merged trace) or a {!Lbr_obs.Flight} recorder's crash or drain
    capture.  Dumps sharing a node name collapse into one deduplicated
    lane. *)

include module type of struct
  include Lbr_obs.Tdump
end
(** The [.tdump] capture codec and its [node_dump] record, re-exported
    from {!Lbr_obs.Tdump}. *)

val fetch : string -> (node_dump, string) result
(** Pull a live daemon's span rings; the address string is parsed by
    {!Lbr_server.Addr.parse}. *)

val skew : node_dump -> float
(** Estimated clock offset: add to node-clock times to get dumper time. *)

type merged = {
  json : string;  (** the Chrome trace JSON ([traceEvents] + [epochSeconds]) *)
  lanes : string list;  (** the node name of each lane, in [pid] order *)
  events : int;
      (** node events written, after same-lane dedup; the lane-name and
          flow-arrow records are not counted *)
}

val merge : node_dump list -> merged
(** The merged Chrome trace, with what it holds. *)
