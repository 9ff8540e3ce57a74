module Oracle = Lbr_runtime.Oracle
module Run = Lbr_frontend.Run

(* Process-wide, like the oracle's counters: with
   [lbr_oracle_executions_total] it tells how a daemon's verdicts were
   paid for.  Registered eagerly: worker domains racing to force a lazy
   would raise [Lazy.Undefined] in the loser. *)
let m_replayed =
  Lbr_obs.Metrics.counter ~help:"Predicate verdicts answered from a job's replay table."
    "lbr_replayed_verdicts_total"

let reduce (ctx : Scheduler.runner_ctx) (spec : Wire.spec) =
  let config =
    {
      Oracle.crash_policy = spec.crash_policy;
      retries = spec.retries;
      transient = (function Lbr_decompiler.Tool.Transient_failure _ -> true | _ -> false);
    }
  in
  let oracle = Oracle.make ~config ~name:ctx.job_id () in
  let replay ~key =
    let known = Hashtbl.find_opt ctx.replay key in
    if Option.is_some known then Lbr_obs.Metrics.incr m_replayed;
    known
  in
  let execute ~key thunk =
    let retries0 = Oracle.retries_used oracle in
    let t0 = Unix.gettimeofday () in
    let ok = Oracle.run oracle thunk in
    ctx.record ~key
      ~latency:(Unix.gettimeofday () -. t0)
      ~retries:(Oracle.retries_used oracle - retries0)
      ok;
    ok
  in
  let hooks =
    {
      Run.on_improvement = Some ctx.progress;
      should_stop = Some ctx.should_stop;
      replay = Some replay;
      execute = Some execute;
    }
  in
  let reduced =
    Result.bind (Lbr_frontend.Registry.find_for ~strategy:spec.strategy spec.frontend)
      (fun frontend ->
        Run.reduce_text ~hooks ~strategy:spec.strategy frontend ~text:spec.pool_bytes
          ~spec:spec.tool)
  in
  Result.map
    (fun ((outcome : Run.outcome), printed) ->
      ( {
          Wire.ok = outcome.ok;
          predicate_runs = outcome.predicate_runs;
          replayed_runs = outcome.replayed_runs;
          tool_executions = Oracle.executions oracle;
          oracle_retries = Oracle.retries_used oracle;
          oracle_crashes = Oracle.crashes oracle;
          sim_time = outcome.sim_time;
          wall_time = outcome.wall_time;
          classes0 = outcome.items0;
          classes1 = outcome.items1;
          bytes0 = outcome.bytes0;
          bytes1 = outcome.bytes1;
        },
        printed ))
    reduced
