(** The reduction driver, over any {!Frontend.S}.

    This is the only code that instruments a predicate: every {!strategy}
    — GBR, J-Reduce and the two lossy baselines — runs against the same
    black box, on every frontend.  It charges a
    simulated clock [1 + 4e-4 × bytes] seconds per predicate run, records
    an improvement timeline on (bytes, items), and speaks the hook surface
    the server's scheduler uses — so journal replay, verdict streaming and
    cancellation work unchanged for every frontend and strategy.

    One verdict path: a strategy's query is answered by the
    [Lbr.Predicate] memo of this reduction, or else by [hooks.replay] (a
    verdict already known, keyed by the candidate assignment's digest),
    or else by running the check, wrapped by [hooks.execute].  The replay
    lookup happens once, here, so a replayed verdict never runs the tool.

    Before the strategy starts, the problem is validated
    ({!Lbr.Problem.validate}), which runs the predicate once on the full
    input.  That run is charged to [sim_time] (and passes through the
    hooks) but not counted in [predicate_runs], which is the strategy's
    own count. *)

type hooks = {
  on_improvement : (float -> int -> int -> unit) option;
      (** (simulated time, items, bytes) at each improvement — how the
          server streams progress *)
  should_stop : (unit -> bool) option;
      (** polled before every predicate run; [true] raises {!Cancelled} *)
  replay : (key:string -> bool option) option;
      (** a verdict already known (e.g. from a replay journal) for the
          candidate assignment whose hex digest is [key] — stable across
          processes, it names journal entries.  A [Some] answer counts in
          [replayed_runs] and skips the check.  Speculation consults it
          too: an assignment whose verdict is known is never executed
          speculatively, so speculation adds no fresh executions to a
          replayed workload.  On the demand path the simulated clock has
          already been charged when this is called, so a replayed run
          keeps [sim_time] — and hence the whole outcome — identical to a
          cold run. *)
  execute : (key:string -> (unit -> bool) -> bool) option;
      (** wraps a fresh check, called only when [replay] has no answer;
          the thunk performs the real check *)
}

val default_hooks : hooks
(** All fields [None]: exactly the unhooked behaviour. *)

exception Cancelled
(** Raised out of a run when [hooks.should_stop] returns [true]. *)

type strategy =
  | Gbr  (** generalized binary reduction over the constraints (§4) *)
  | Jreduce
      (** J-Reduce: binary reduction ({!Lbr_baselines.Binary_reduction})
          over the frontend's constraints read as a dependency graph; a
          frontend with a non-graph clause gets [Error] *)
  | Lossy_first
      (** binary reduction over the lossy graph encoding (§4.3) that keeps
          each non-graph clause's first premise and first head *)
  | Lossy_last  (** the same, keeping the last premise and last head *)

val strategy_name : strategy -> string
(** [gbr], [j-reduce], [lossy-first], [lossy-last]. *)

val all_strategies : strategy list
(** Report order: the three baselines, then GBR. *)

type outcome = {
  frontend : string;
  ok : bool;
  sim_time : float;  (** simulated seconds, including the validation run *)
  wall_time : float;
  predicate_runs : int;
  replayed_runs : int;
      (** predicate runs answered by [hooks.replay]; always 0 without
          hooks *)
  items0 : int;
  items1 : int;
  bytes0 : int;
  bytes1 : int;
  timeline : (float * int * int) list;
      (** (simulated time, items, bytes) at each improvement, oldest first;
          the validation run records the first point *)
}

val reduce_input :
  ?hooks:hooks ->
  ?strategy:strategy ->
  ?speculate:Lbr_runtime.Pool.t ->
  (module Frontend.S with type ctx = 'c and type input = 'i) ->
  'i ->
  spec:string ->
  (outcome * 'i, string) result
(** Derive, generate constraints, validate the problem and run the
    [strategy] (default {!Gbr}) in the creation order.  [Error] on
    malformed inputs, unsatisfiable-by-construction problems, constraints
    the strategy cannot search (J-Reduce on a non-graph clause, a lossy
    encoding of a purely negative clause), or a failing full-input
    predicate; a mid-flight failure (e.g. an inconsistent predicate)
    returns [Ok] with [ok = false] and the original input.

    [~speculate] applies to GBR only: it turns on speculative predicate
    pipelining over the given worker pool ({!Lbr.Speculate}): while each
    predicate verdict is pending, the assignments GBR would demand next on
    either branch are computed on idle workers, and the loser is
    cancelled when the verdict lands.  Results, statistics, the simulated
    clock and the improvement timeline are byte-identical to the
    sequential run; only wall-clock changes.  Requires the predicate check
    to be pure (every built-in frontend's is). *)

val reduce_text :
  ?hooks:hooks ->
  ?strategy:strategy ->
  ?speculate:Lbr_runtime.Pool.t ->
  Frontend.packed ->
  text:string ->
  spec:string ->
  (outcome * string, string) result
(** {!reduce_input} over serialized bytes: parse, reduce, print.  This is
    the wire-payload entry point the server's runner dispatches to. *)
