(** Process-wide metrics: counters, gauges, and log-bucketed histograms.

    Aggregation is exact and mutex-guarded: every metric carries its own
    lock, taken on each update, so values observed from concurrent domains
    are never lost or torn.  Updates are cheap (one lock + one array store)
    but not free — instrument operations that do real work (a predicate
    run, a scheduler transition), not inner loops.

    Metrics are registered in a single process-global registry keyed by
    name.  Registration is create-or-get: registering the same name twice
    with the same kind returns the existing metric; a kind mismatch raises
    [Invalid_argument].  Names must match the Prometheus grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

(** Plain log-bucketed histogram data, usable standalone (per-domain
    shards, journal post-mortems) and as the state behind registry
    histograms.  Not thread-safe on its own. *)
module Histogram : sig
  type t

  (** [create ~lo ~growth ~buckets ()] builds a histogram whose finite
      bucket upper bounds are [lo, lo*growth, lo*growth^2, ...] with the
      last bucket extending to [+inf].  Defaults: [lo = 1e-6],
      [growth = 2.0], [buckets = 32] — with seconds as the unit this
      spans 1µs to ~35min.  Raises [Invalid_argument] unless [lo] and
      [growth] are finite, [lo > 0], [growth > 1] and [buckets >= 2]. *)
  val create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  (** Upper bounds of each bucket; the last is [infinity]. *)
  val upper_bounds : t -> float array

  (** Per-bucket (non-cumulative) observation counts. *)
  val bucket_counts : t -> int array

  (** Index of the bucket a value falls into. *)
  val bucket_index : t -> float -> int

  (** [merge a b] is a fresh histogram containing both inputs'
      observations.  Raises [Invalid_argument] if the bucket layouts
      differ. *)
  val merge : t -> t -> t

  (** [quantile t q] estimates the [q]-quantile (q in [0,1]) as the upper
      bound of the bucket containing the ceil(q*count)-th smallest
      observation — i.e. exact up to bucket resolution.  [nan] when
      empty; the open last bucket reports one growth step past its lower
      bound. *)
  val quantile : t -> float -> float

  val copy : t -> t
end

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  ?help:string -> ?lo:float -> ?growth:float -> ?buckets:int -> string -> histogram

val observe : histogram -> float -> unit

(** Consistent locked copy of a registry histogram's current state. *)
val histogram_state : histogram -> Histogram.t

(** Look up current values by name — [None] when the name is unregistered
    or of a different kind. *)
val find_counter_value : string -> int option

(** One row per registered metric, sorted by name, for structured dumps
    ([bench --json]). *)
type row =
  | Counter_row of { name : string; value : int }
  | Gauge_row of { name : string; value : float }
  | Histogram_row of {
      name : string;
      count : int;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

(** [rows_of_dump (dump ())]. *)
val rows : unit -> row list

(** {2 Registry dumps — metrics federation}

    A [dump] is a value snapshot of a whole registry: one
    [(name, help, value)] triple per metric, sorted by name.  Dumps are
    what a daemon's [Stats_reply] carries, so what a cluster coordinator
    pulls from each worker; {!merge_dumps} combines them {e exactly}
    — counters and gauges by addition, histograms bucket-by-bucket under
    the same layout check {!Histogram.merge} enforces (a kind or layout
    mismatch keeps the first value rather than raising: federation
    degrades under version skew, never dies). *)

type dumped =
  | D_counter of int
  | D_gauge of float
  | D_hist of { d_lo : float; d_growth : float; d_counts : int array; d_sum : float }

type dump = (string * string * dumped) list

(** Snapshot every registered metric. *)
val dump : unit -> dump

(** Compact binary form: "LBRM1" magic, then the entries in
    [Lbr_codec.Codec] primitives. *)
val encode_dump : dump -> string

(** Total: any input yields [Ok] or [Error], never an exception.  A
    histogram whose layout {!Histogram.create} would refuse is an
    [Error], so every [Ok] dump renders with {!rows_of_dump} and
    {!render_prometheus_dump}. *)
val decode_dump : string -> (dump, string) result

val merge_dumps : dump list -> dump

(** Dump rows in the same shape {!rows} produces for the live registry
    ([bench --json] federated rows, [top]). *)
val rows_of_dump : dump -> row list

val find_in_dump : dump -> string -> dumped option

(** Prometheus text exposition format (counters, gauges, histograms with
    cumulative [le] buckets, [_sum], [_count]) for labelled views, in
    list order: the [""] view unlabelled, every other view with
    [worker="<label>"] on each sample, composing with histogram [le]
    labels.  The one text producer: the [--prometheus-listen] exporter
    and [top --metrics] both print it, and nothing parses it back. *)
val render_views : (string * dump) list -> string
