(** The reduction driver, over any {!Frontend.S}.

    This is the only code that instruments a predicate: every strategy —
    GBR, and the harness's J-Reduce and lossy baselines through
    {!reduce_closures} — runs against the same black box.  It charges a
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

open Lbr_logic

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
  ?speculate:Lbr_runtime.Pool.t ->
  (module Frontend.S with type ctx = 'c and type input = 'i) ->
  'i ->
  spec:string ->
  (outcome * 'i, string) result
(** Derive, generate constraints, validate the problem and run GBR in the
    creation order.  [Error] on malformed inputs, unsatisfiable-by-
    construction problems, or a failing full-input predicate; a mid-flight
    GBR failure (e.g. an inconsistent predicate) returns [Ok] with
    [ok = false] and the original input.

    [~speculate] turns on speculative predicate pipelining over the given
    worker pool ({!Lbr.Speculate}): while each predicate verdict is
    pending, the assignments GBR would demand next on either branch are
    computed on idle workers, and the loser is cancelled when the verdict
    lands.  Results, statistics, the simulated clock and the improvement
    timeline are byte-identical to the sequential run; only wall-clock
    changes.  Requires the predicate check to be pure (every built-in
    frontend's is). *)

val reduce_closures :
  ?hooks:hooks ->
  (module Frontend.S with type ctx = 'c and type input = 'i) ->
  'i ->
  spec:string ->
  (Var.Pool.t -> Cnf.t -> Assignment.t * Assignment.t list) ->
  (outcome * 'i, string) result
(** {!reduce_input} with binary reduction ({!Lbr_baselines.Binary_reduction})
    in place of GBR: the builder turns the variable pool and the frontend's
    constraints into [(base, closures)], any union of which with [base] is
    a valid sub-input — how J-Reduce and the lossy encodings see an input.
    Validation and the instrumented predicate are {!reduce_input}'s. *)

val reduce_text :
  ?hooks:hooks ->
  ?speculate:Lbr_runtime.Pool.t ->
  Frontend.packed ->
  text:string ->
  spec:string ->
  (outcome * string, string) result
(** {!reduce_input} over serialized bytes: parse, reduce, print.  This is
    the wire-payload entry point the server's runner dispatches to. *)
