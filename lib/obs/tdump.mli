(** The [.tdump] capture format: one node's span events plus the clock
    readings a merger needs to place them on a shared timeline.

    Written by [lbr-reduce trace-dump] (a live daemon's span rings) and
    by the {!Flight} recorder (its crash or drain capture); read by
    [trace-merge] and [report].  Every reader goes through
    {!Lbr_codec.Codec.read}, so any input yields [Ok] or [Error]. *)

type node_dump = {
  nd_node : string;  (** lane label (the daemon's bound address) *)
  nd_epoch : float;  (** node-clock second its [ts = 0] maps to *)
  nd_server_now : float;  (** node clock at dump time *)
  nd_client_mid : float;  (** dumper clock at (roughly) the same instant *)
  nd_dropped : int;  (** events lost to full rings before the dump *)
  nd_events : Trace.event list;
}

val w_trace_events : Buffer.t -> Trace.event list -> unit
(** The events section on its own: a [u32] count, then per event its
    name, phase, [ts], [dur], [tid] and tagged args.  Also the payload
    of the wire protocol's [Trace_dump_reply]. *)

val r_trace_events : Lbr_codec.Codec.reader -> Trace.event list
(** Reads what {!w_trace_events} wrote, inside a {!Lbr_codec.Codec.read}. *)

val to_string : node_dump -> string
(** "LBRTD1" magic, a header in {!Lbr_codec.Codec} primitives, then the
    events section. *)

val of_string : string -> (node_dump, string) result
(** Total: [Ok] or [Error], never an exception. *)

val write_file : string -> node_dump -> unit
val read_file : string -> (node_dump, string) result
