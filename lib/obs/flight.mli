(** Crash flight recorder: a bounded, always-on ring of the most recent
    spans plus the last K job state transitions, dumped to the journal
    directory when the process dies badly (SIGSEGV, uncaught exception)
    or drains on SIGTERM.  Rendered post-mortem by [lbr-reduce report];
    [lbr-reduce trace-merge] takes a dump as one more lane.

    Arming taps {!Trace.set_flight_hook}, so spans are mirrored here even
    when classic tracing is off.  The rings are deliberately small: the
    product is the last few hundred events before death, not a full
    trace.  One recorder per process.

    A dump is two files in formats that already exist:
    - [flight-<pid>-<reason>.tdump], a {!Tdump} capture: the span ring,
      then the transition ring as [job.state] instants (args [job],
      [state]), then one [flight.dump] instant (args [reason], [pid]).
      [epoch] is the arm time and every [ts] is relative to it;
      [server_now] and [client_mid] are the dump time; [dropped] counts
      events both rings overwrote.
    - [flight-<pid>-<reason>.metrics], the process's {!Metrics.dump} in
      {!Metrics.encode_dump} form.

    Both are written to a temporary name and renamed, the metric dump
    first, so a process killed mid-dump leaves no torn file. *)

(** Arm the recorder: ring capacities (spans, transitions), a node label
    for the dump, and the directory dumps are written to (created if
    missing).  Installs a best-effort SIGSEGV handler and chains the
    uncaught-exception handler; SIGTERM is {e not} hooked here — the
    daemons' drain path calls {!dump} so the recorder composes with
    {!Lbr_server.Shutdown} instead of racing it. *)
val arm : ?node:string -> ?spans:int -> ?transitions:int -> dir:string -> unit -> unit

val armed : unit -> bool

(** Drop the recorder and the trace hook (test helper; signal handlers
    stay installed but become no-ops). *)
val disarm : unit -> unit

(** Record a job state transition, e.g. [~job:"job-3" ~state:"running"].
    No-op unless armed. *)
val transition : job:string -> state:string -> unit

(** Write a dump into the armed directory and return the [.tdump] path.
    [None] when not armed or the write failed (a dying process never
    dies twice here). *)
val dump : reason:string -> string option

(** Read a dump back from its [.tdump] path: the capture and the metric
    dump beside it.  Total: [Ok] or [Error], never an exception. *)
val read : string -> (Tdump.node_dump * Metrics.dump, string) result
