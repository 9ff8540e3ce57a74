(** Running the four reduction strategies on corpus instances.

    The strategies are {!Lbr_frontend.Run}'s, so all four share one
    instrumented predicate and one cost model: every predicate execution
    (decompile + recompile of the candidate sub-pool) costs
    [1 + 4e-4 × bytes] simulated seconds, mimicking the paper's setup where
    each cycle took tens of seconds on real decompilers, and each reduction
    is charged one validation run on the full pool.  GBR and the lossy
    encodings reduce through {!Lbr_frontend.Jvm}; J-Reduce through
    {!Lbr_frontend.Jvm_classes}, the class-granularity view.  Wall clock is
    recorded separately (our simulated tools are fast; the paper's were the
    bottleneck). *)

open Lbr_jvm

type strategy = Lbr_frontend.Run.strategy = Gbr | Jreduce | Lossy_first | Lossy_last

val strategy_name : strategy -> string
val all_strategies : strategy list

type outcome = {
  instance_id : string;
  strategy : strategy;
  ok : bool;  (** the final sub-input still produces the full error set *)
  sim_time : float;  (** simulated seconds spent in predicate runs *)
  wall_time : float;
  predicate_runs : int;
  replayed_runs : int;
      (** predicate runs answered by [hooks.replay] (e.g. the server's
          journal replay); always 0 without hooks *)
  classes0 : int;
  classes1 : int;
  bytes0 : int;
  bytes1 : int;
  items0 : int;
  items1 : int;
  lines0 : int;
  lines1 : int;
  timeline : (float * int * int) list;
      (** (simulated time, best classes, best bytes) at each improvement,
          oldest first; the first point is the validation run's
          (sim, classes0, bytes0) *)
}

val run : strategy -> Corpus.instance -> outcome

val run_with :
  ?hooks:Lbr_frontend.Run.hooks ->
  ?speculate:Lbr_runtime.Pool.t ->
  strategy ->
  Corpus.instance ->
  outcome * Classpool.t
(** Like {!run} but also returns the final reduced pool, and threads
    [hooks] through the driver.  The predicate is built by
    {!Lbr_frontend.Jvm.tool_predicate} from the instance's tool name, which
    recomputes the baseline errors; [instance.baseline_errors] is not read.
    Raises [Invalid_argument] if [instance.tool] is not physically one of
    {!Lbr_decompiler.Tool.all}: a {!Lbr_decompiler.Tool.with_faults}
    variant or a custom tool would otherwise be silently replaced by the
    built-in tool of the same name.

    [~speculate] (GBR only; the baselines ignore it) pipelines the
    reduction loop over the given worker pool via {!Lbr.Speculate}: probes
    and next-iteration builds for both branches of each pending verdict
    run speculatively, with the losing branch cancelled when the verdict
    lands.  Every outcome field except [wall_time] is byte-identical to
    the sequential run. *)

val run_corpus : ?jobs:int -> strategy -> Corpus.instance list -> outcome list
(** Run one strategy over a list of instances, fanning them across a
    [Lbr_runtime.Pool] of [jobs] worker domains ([jobs] defaults to [1],
    which is exactly the sequential [List.map] over {!run}).  Outcomes come
    back in instance order, and every field except [wall_time] is
    deterministic — identical for any [jobs] — because instances share no
    mutable state (the global pattern memo caches are mutex-guarded and
    pure in their keys). *)

val run_corpus_full :
  ?jobs:int ->
  ?speculate:Lbr_runtime.Pool.t ->
  strategy ->
  Corpus.instance list ->
  (outcome * Classpool.t) list
(** [run_corpus] that also returns each instance's final reduced pool.
    [~speculate] is threaded to {!run_with} per instance — pair it with
    [jobs = 1] (intra-instance parallelism from the speculation pool
    replaces cross-instance fan-out). *)
