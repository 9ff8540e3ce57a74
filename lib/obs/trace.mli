(** Low-overhead tracing: per-domain ring buffers of span events, exported
    as Chrome [trace_event] JSON loadable in [chrome://tracing] and
    Perfetto.

    {2 Cost contract}

    Tracing is off by default.  A disabled call site costs one atomic flag
    load and a branch — single-digit nanoseconds, verified by the
    [sat:trace-disabled-overhead] micro-benchmark (budget: 50ns/call).
    The flag is a bitmask (tracing | flight recorder) so arming the
    {!Flight} recorder does not add a second load.  Instrumentation must
    therefore never compute span attributes eagerly: [args] is a thunk,
    evaluated only when recording is enabled, at span {e end} — so it may
    read state the traced section updates.

    {2 Concurrency}

    Each domain records into its own ring buffer (no locks, no
    cross-domain traffic on the hot path).  Rings are bounded: when full,
    the oldest event is overwritten and [dropped] counts it — a trace
    keeps its most recent window.  [events] / [to_json] read all rings and
    are meant to run after [stop] (or at a quiescent point); events being
    written concurrently may be missed or torn, never crash. *)

type arg = Str of string | Int of int | Float of float | Bool of bool

type event = {
  ev_name : string;
  ev_ph : char;  (** ['X'] complete span, ['i'] instant *)
  ev_ts : float;  (** microseconds since [start] *)
  ev_dur : float;  (** microseconds; [0.] for instants *)
  ev_tid : int;  (** recording domain's id *)
  ev_args : (string * arg) list;
}

val enabled : unit -> bool

(** Enable tracing: resets all rings, re-arms the clock epoch and sets the
    per-domain ring capacity (default 65536 events). *)
val start : ?capacity:int -> unit -> unit

(** Disable tracing.  Recorded events stay readable. *)
val stop : unit -> unit

(** The trace context a job carries across every process boundary: minted
    once per job, shipped in wire frames, and installed (via
    {!with_context}) around the code that runs the job so every span it
    records — on whichever node — names the same trace and the same
    parent span. *)
module Context : sig
  type t = {
    trace_id : string;  (** 16 hex chars; constant for the job's lifetime *)
    parent_span : string;  (** span id the receiving side parents under *)
  }

  (** Fresh trace id + fresh root span id. *)
  val mint : unit -> t

  (** A fresh 16-hex-char span id (same generator as {!mint}). *)
  val fresh_span_id : unit -> string
end

(** [with_context ctx f] runs [f ()] with [ctx] as the domain-local
    current context (restored afterwards, also on exception).  While a
    context is installed, every recorded event gains
    [ctx.trace]/[ctx.parent] args. *)
val with_context : Context.t option -> (unit -> 'a) -> 'a

val current_context : unit -> Context.t option

(** [with_span ?args name f] runs [f ()]; when tracing is enabled, records
    a complete span covering it (also on exception).  [args] is evaluated
    once, after [f] returns; a raising thunk poisons only that span's args
    (they are recorded as [{"args": "<error>"}]), never the span. *)
val with_span : ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a

(** Zero-duration marker event. *)
val instant : ?args:(unit -> (string * arg) list) -> string -> unit

(** Wall-clock seconds ([Unix.gettimeofday]), for [span_between]. *)
val now : unit -> float

(** Absolute wall-clock second that [ts = 0] maps to — the moment of the
    last {!start} ([0.] before the first).  Trace dumps ship it so a
    merger can align nodes on absolute time. *)
val epoch_seconds : unit -> float

(** Record a span from timestamps captured with [now] — for durations
    that don't nest as a call scope (e.g. queue wait measured between
    submit and claim on different threads).  No-op when disabled. *)
val span_between :
  ?args:(unit -> (string * arg) list) -> string -> start:float -> finish:float -> unit

(** All recorded events, oldest first (sorted by timestamp). *)
val events : unit -> event list

(** Events overwritten because a ring was full. *)
val dropped : unit -> int

(** Chrome [trace_event] JSON ({["traceEvents"]} array of ["X"]/["i"]
    events with [ts]/[dur] in microseconds, plus an ["epochSeconds"]
    top-level key). *)
val to_json : unit -> string

val write_file : string -> unit

(** One event as a Chrome [trace_event] JSON object, under an explicit
    process lane (default [pid = 1]).  Used by [trace-merge] and the
    flight recorder. *)
val event_json_string : ?pid:int -> event -> string

val json_escape : string -> string

(** The value of an event's [Str] arg named [key], if any. *)
val str_arg : event -> string -> string option

(** {!Flight}'s tap: while set, every span/instant is also delivered to
    the hook with {e absolute} wall-clock seconds, even when classic
    tracing is off.  The hook must not raise (exceptions are swallowed).
    Internal — use {!Flight.arm}. *)
val set_flight_hook :
  (name:string -> ph:char -> t0:float -> t1:float -> args:(string * arg) list -> unit)
  option ->
  unit
